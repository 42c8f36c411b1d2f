/* One level-1 sweep of the Louvain move rule, compiled.
 *
 * The same arithmetic in the same order as louvain._sweep_py, which documents
 * the rule; louvain.py builds this file with -ffp-contract=off so no
 * multiply-add is fused and both bodies produce the same bits. Slots are
 * numbered in ascending community-key order, so "smallest key" on equal
 * scores is "smallest slot".
 *
 * Scratch, all allocated by the caller for this one call: weight and stamp
 * hold one entry per slot (stamp filled with -1), touched one per slot, and
 * active one zeroed byte per node. Returns the number of moves; on return
 * active[v] is 1 for every node v that moved or neighbours a node that did.
 * Which nodes the next sweep visits, and in what order, is the caller's.
 */
#include <stdint.h>

int64_t commtrack_sweep(
    int64_t n_visit, const int64_t *visit,
    const int64_t *indptr, const int64_t *nbr, const double *wgt,
    const double *loops, const double *k,
    int64_t *node_slot, double *com_in, double *com_tot,
    const uint8_t *pref, const uint8_t *slot_is_prev,
    double two_m, double min_diff,
    double *weight, int64_t *stamp, int64_t *touched, uint8_t *active)
{
    int64_t moved = 0;
    for (int64_t i = 0; i < n_visit; i++) {
        const int64_t u = visit[i], su = node_slot[u];
        const int64_t lo = indptr[u], hi = indptr[u + 1];
        const double ku = k[u];
        int64_t n_touched = 0;
        for (int64_t e = lo; e < hi; e++) {
            const int64_t s = node_slot[nbr[e]];
            if (stamp[s] != u) {
                stamp[s] = u;
                weight[s] = 0.0;
                touched[n_touched++] = s;
            }
            weight[s] += wgt[e];
        }
        const double w_own = stamp[su] == u ? weight[su] : 0.0;
        com_tot[su] -= ku;

        int only_prev = 0;
        if (pref[u])
            for (int64_t t = 0; t < n_touched && !only_prev; t++)
                only_prev = slot_is_prev[touched[t]];

        const double stay_score = w_own * two_m - ku * com_tot[su];
        int64_t best = su;
        double best_score = stay_score;
        for (int64_t t = 0; t < n_touched; t++) {
            const int64_t s = touched[t];
            if (s == su || (only_prev && !slot_is_prev[s]))
                continue;
            const double score = weight[s] * two_m - ku * com_tot[s];
            if (score > best_score || (score == best_score && s < best)) {
                best = s;
                best_score = score;
            }
        }

        if (best != su && best_score - stay_score > min_diff) {
            node_slot[u] = best;
            com_tot[best] += ku;
            com_in[su] -= 2.0 * w_own + 2.0 * loops[u];
            com_in[best] += 2.0 * weight[best] + 2.0 * loops[u];
            moved++;
            active[u] = 1;
            for (int64_t e = lo; e < hi; e++)
                active[nbr[e]] = 1;
        } else {
            com_tot[su] += ku;
        }
    }
    return moved;
}
