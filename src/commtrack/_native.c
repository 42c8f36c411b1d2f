/* The package's compiled kernels, built into one library by commtrack._native.
 *
 * Each function is a twin of a pure-Python body that documents its contract
 * and runs when no library can be built; both produce the same bits. The
 * caller allocates every array, checks its dtype, layout and bounds, and
 * passes raw pointers. The library is built with -ffp-contract=off so no
 * multiply-add is fused.
 */
#include <stdint.h>
#include <string.h>

/* One level-1 sweep of the Louvain move rule: louvain._sweep_py.
 *
 * The same arithmetic in the same order. Slots are numbered in ascending
 * community-key order, so "smallest key" on equal scores is "smallest slot".
 *
 * Scratch, all allocated by the caller for this one call: weight and stamp
 * hold one entry per slot (stamp filled with -1), touched one per slot, and
 * active one zeroed byte per node. Returns the number of moves; on return
 * active[v] is 1 for every node v that moved or neighbours a node that did.
 * Which nodes the next sweep visits, and in what order, is the caller's.
 */
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

/* Distinct byte strings numbered in first-seen order: an open-addressing
 * table (FNV-1a, linear probing) whose slots hold number + 1, 0 when empty,
 * over a text holding each string followed by a tab; string i is
 * text[off[i] .. off[i + 1] - 1). */
typedef struct {
    uint32_t *slots;
    uint64_t mask;
    int64_t *off;
    char *text;
    int64_t n;
} interner;

static int64_t intern(interner *t, const char *s, int64_t len)
{
    uint64_t h = 14695981039346656037u;
    for (int64_t i = 0; i < len; i++)
        h = (h ^ (unsigned char)s[i]) * 1099511628211u;
    for (uint64_t j = (h ^ (h >> 32)) & t->mask;; j = (j + 1) & t->mask) {
        const uint32_t slot = t->slots[j];
        if (slot == 0) {
            const int64_t at = t->off[t->n];
            memcpy(t->text + at, s, (size_t)len);
            t->text[at + len] = '\t';
            t->off[t->n + 1] = at + len + 1;
            t->slots[j] = (uint32_t)++t->n;
            return t->n - 1;
        }
        const int64_t *o = t->off + (slot - 1);
        if (o[1] - o[0] - 1 == len && memcmp(t->text + o[0], s, (size_t)len) == 0)
            return slot - 1;
    }
}

/* Tokenize and intern an edge TSV: graph._edge_tokens_py.
 *
 * buf holds the file with every line ending translated to LF. Blank lines
 * and lines starting with '#' are skipped. One-field lines are interned
 * first, then the endpoints of each edge line in file order, so ids are
 * numbered in first-seen order; the third fields are interned in a table of
 * their own. Per edge i, u[i] and v[i] are the endpoint ids and wi[i] the
 * weight text's number, or -1 on a two-field line.
 *
 * Capacities, for L = the number of LF bytes + 1: id_off 2L + 1 entries,
 * w_off L + 1, u, v and wi L each, both texts len + 1 bytes; both slot
 * tables are zeroed powers of two over twice their entry counts (masks are
 * size - 1). Returns the number of edges, or -1 when a line holds more than
 * two tabs; text_len receives the lengths of the id and the weight text.
 */
int64_t commtrack_edge_tokens(
    const char *buf, int64_t len,
    uint32_t *id_slots, int64_t id_mask, int64_t *id_off, char *id_text,
    uint32_t *w_slots, int64_t w_mask, int64_t *w_off, char *w_text,
    int64_t *u, int64_t *v, int64_t *wi, int64_t *text_len)
{
    interner ids = {id_slots, (uint64_t)id_mask, id_off, id_text, 0};
    interner ws = {w_slots, (uint64_t)w_mask, w_off, w_text, 0};
    const char *const end = buf + len;
    int64_t m = 0;
    id_off[0] = w_off[0] = 0;
    /* pass 0 interns the one-field lines, pass 1 the edges */
    for (int pass = 0; pass < 2; pass++) {
        for (const char *p = buf, *eol; p < end; p = eol + 1) {
            eol = memchr(p, '\n', (size_t)(end - p));
            if (eol == NULL)
                eol = end;
            if (eol == p || *p == '#')
                continue;
            const char *tab[2] = {eol, eol};
            int n_tab = 0;
            for (const char *q = p; (q = memchr(q, '\t', (size_t)(eol - q))) != NULL; q++) {
                if (n_tab == 2)
                    return -1;
                tab[n_tab++] = q;
            }
            if (pass == 0) {
                if (n_tab == 0)
                    intern(&ids, p, eol - p);
                continue;
            }
            if (n_tab == 0)
                continue;
            u[m] = intern(&ids, p, tab[0] - p);
            v[m] = intern(&ids, tab[0] + 1, tab[1] - tab[0] - 1);
            wi[m] = n_tab == 2 ? intern(&ws, tab[1] + 1, eol - tab[1] - 1) : -1;
            m++;
        }
    }
    text_len[0] = id_off[ids.n];
    text_len[1] = w_off[ws.n];
    return m;
}
