/* The package's compiled kernels, built into one library by commtrack._native.
 *
 * Each function is a twin of a pure-Python body that documents its contract
 * and runs when no library can be built; both produce the same bits. The
 * caller allocates every array, checks its dtype, layout and bounds, and
 * passes raw pointers. The library is built with -ffp-contract=off so no
 * multiply-add is fused.
 *
 * Eight kernels: the level-1 Louvain sweep, the community sums and the graph
 * projection (Louvain phase 2) around it, the CSR builder behind every graph
 * made from an edge list, the edge and partition TSV tokenizer, the TSV row
 * writer, and the CDR line tokenizer and the id interner behind the run's
 * one CDR id table. The sums, the projection and the builder
 * add in numpy's order, so their floating-point results are bit-identical to
 * the numpy twins'. The CDR tokenizer decides only well-formed records; it
 * defers every other line to the Python validator, which alone says why a
 * line is rejected.
 */
#include <stdint.h>
#include <string.h>

/* Add w to acc[s] for key, and return n_touched counting s if it is new for
 * key: the stamped gather of the sweep and the projection. Selects, not a
 * branch on a slot's being new that the data decides and the CPU cannot
 * predict: a new slot sums 0.0 + w, the bits of a reset then an add, and
 * whatever acc[s] held is dropped. s is stored in touched[n_touched] even
 * when it repeats, so touched needs one entry more than there are slots.
 */
static inline int64_t gather(
    int64_t s, int64_t key, double w, int64_t *stamp, double *acc, int64_t *touched, int64_t n_touched)
{
    const int fresh = stamp[s] != key;
    const double kept[2] = {acc[s], 0.0};
    touched[n_touched] = s;
    stamp[s] = key;
    acc[s] = kept[fresh] + w;
    return n_touched + fresh;
}

/* One level-1 sweep of the Louvain move rule: louvain._sweep_py.
 *
 * The same arithmetic in the same order. Slots are numbered in ascending
 * community-key order, so "smallest key" on equal scores is "smallest slot".
 *
 * Scratch: weight and stamp hold one entry per slot (c slots), touched c + 1
 * (see gather); they serve every sweep of a level, and stamp is reset to -1
 * here, so no mark of an earlier sweep survives. active is one zeroed byte
 * per node, new for each call. Returns the number of moves; on return
 * active[v] is 1 for every node v that moved or neighbours a node that did.
 * Which nodes the next sweep visits, and in what order, is the caller's.
 */
int64_t commtrack_sweep(
    int64_t n_visit, const int64_t *visit, uint8_t *active,
    const int64_t *indptr, const int64_t *nbr, const double *wgt,
    const double *loops, const double *k,
    int64_t c, int64_t *node_slot, double *com_in, double *com_tot,
    const uint8_t *pref, const uint8_t *slot_is_prev,
    double two_m, double min_diff,
    double *weight, int64_t *stamp, int64_t *touched)
{
    int64_t moved = 0;
    for (int64_t s = 0; s < c; s++)
        stamp[s] = -1;
    for (int64_t i = 0; i < n_visit; i++) {
        const int64_t u = visit[i], su = node_slot[u];
        const int64_t lo = indptr[u], hi = indptr[u + 1];
        const double ku = k[u];
        int64_t n_touched = 0;
        for (int64_t e = lo; e < hi; e++)
            n_touched = gather(node_slot[nbr[e]], u, wgt[e], stamp, weight, touched, n_touched);
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

/* in_c and tot_c of each community: louvain._sums_py.
 *
 * node_com[u] in [0, c). Each sum runs in numpy's order: tot over the nodes,
 * in over the same-community CSR entries, then twice the self-loop sum kept
 * apart. com_in, com_tot and loop_sum hold c zeros on entry.
 */
void commtrack_community_sums(
    int64_t n, const int64_t *indptr, const int64_t *nbr, const double *wgt,
    const double *loops, const double *k, const int64_t *node_com, int64_t c,
    double *com_in, double *com_tot, double *loop_sum)
{
    for (int64_t u = 0; u < n; u++) {
        const int64_t s = node_com[u];
        double in = com_in[s];
        com_tot[s] += k[u];
        loop_sum[s] += loops[u];
        for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
            /* a select, not a branch that about half the entries would
             * mispredict: a sum that starts at +0.0 is never -0.0, so
             * adding +0.0 leaves its bits as they are */
            const double pick[2] = {0.0, wgt[e]};
            in += pick[node_com[nbr[e]] == s];
        }
        com_in[s] = in;
    }
    for (int64_t s = 0; s < c; s++)
        com_in[s] += 2.0 * loop_sum[s];
}

/* Mirror the edges (a, b), a < b, of upper_nbr and upper_wgt into a
 * symmetric CSR on c nodes whose rows are sorted by neighbour. Node a's edges
 * are entries upper_ptr[a] .. upper_ptr[a + 1], in any order of b. On entry
 * out_ptr[a + 1] holds the number of entries of row a; on return out_ptr
 * holds the row offsets. next is scratch for c entries. Inline: called out
 * of line, it made commtrack_project about a tenth slower on sweep graphs.
 */
static inline void mirror_upper(
    int64_t c, const int64_t *upper_ptr, const int64_t *upper_nbr, const double *upper_wgt,
    int64_t *next, int64_t *out_ptr, int64_t *out_nbr, double *out_wgt)
{
    for (int64_t a = 0; a < c; a++) {
        out_ptr[a + 1] += out_ptr[a];
        next[a] = out_ptr[a];  /* the next free entry of row a */
    }
    /* two counting-sort passes: each row b takes its entries from lower
     * nodes in the order of a, then each row a its entries from higher nodes
     * in the order of the row b that holds them */
    for (int64_t a = 0; a < c; a++)
        for (int64_t i = upper_ptr[a]; i < upper_ptr[a + 1]; i++) {
            const int64_t b = upper_nbr[i];
            out_nbr[next[b]] = a;
            out_wgt[next[b]++] = upper_wgt[i];
        }
    for (int64_t b = 0; b < c; b++)
        for (int64_t i = out_ptr[b], end = next[b]; i < end; i++) {
            const int64_t a = out_nbr[i];
            out_nbr[next[a]] = b;
            out_wgt[next[a]++] = out_wgt[i];
        }
}

/* The graph on c nodes that node u maps to as new_index[u] in [-1, c), or
 * leaves out at -1: graph._project_py.
 *
 * The same sums in numpy's order: the new self-loops add the kept
 * self-loops in node order, then the halves (w * 0.5) of the CSR entries
 * inside one new node in CSR order. The weight of a new edge (a, b), a < b,
 * adds its CSR entries from a to b over a's members in node order, each
 * row in order. Each edge is summed once and mirrored into the CSR, so both
 * orientations carry the same bits; each row is sorted by neighbour. Every
 * mapped neighbour b of a's members is gathered, with no branch on b > a per
 * entry; only the b > a are then kept, in the order first met, so each
 * (a, b) adds the same entries in the same order.
 *
 * i_scratch holds 4 c + n + 4 + cap int64 (touched takes c + 1, see gather)
 * and f_scratch c + cap doubles;
 * out_ptr holds c + 1 zeros and out_loops c zeros; out_nbr and out_wgt have
 * room for 2 cap entries. Returns the number of CSR entries written, or -1
 * when the new graph has more than cap edges.
 */
int64_t commtrack_project(
    int64_t n, const int64_t *indptr, const int64_t *nbr, const double *wgt,
    const double *loops, const int64_t *new_index, int64_t c, int64_t cap,
    int64_t *i_scratch, double *f_scratch,
    int64_t *out_ptr, int64_t *out_nbr, double *out_wgt, double *out_loops)
{
    /* first[a] .. first[a + 1]: a's members, in node order */
    int64_t *first = i_scratch, *members = first + c + 2, *stamp = members + n;
    int64_t *touched = stamp + c, *upper_ptr = touched + c + 1, *upper_nbr = upper_ptr + c + 1;
    double *acc = f_scratch, *upper_wgt = acc + c;

    memset(first, 0, (size_t)(c + 2) * sizeof *first);
    for (int64_t u = 0; u < n; u++)
        if (new_index[u] >= 0)
            first[new_index[u] + 2]++;
    for (int64_t a = 0; a < c; a++) {
        first[a + 2] += first[a + 1];
        stamp[a] = -1;
    }
    for (int64_t u = 0; u < n; u++) {  /* first[a + 1] counts up to a's end */
        const int64_t a = new_index[u];
        if (a >= 0) {
            members[first[a + 1]++] = u;
            out_loops[a] += loops[u];
        }
    }

    int64_t m = 0;
    upper_ptr[0] = 0;
    for (int64_t a = 0; a < c; a++) {
        int64_t n_touched = 0;
        double loop = out_loops[a];
        for (int64_t i = first[a]; i < first[a + 1]; i++) {
            const int64_t u = members[i];
            for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
                const int64_t b = new_index[nbr[e]];
                const double half[2] = {0.0, wgt[e] * 0.5};  /* a select, as in the sums */
                loop += half[b == a];
                if (b >= 0)
                    n_touched = gather(b, a, wgt[e], stamp, acc, touched, n_touched);
            }
        }
        out_loops[a] = loop;
        int64_t n_upper = 0;  /* keep the b > a, in first-seen order */
        for (int64_t t = 0; t < n_touched; t++) {
            touched[n_upper] = touched[t];
            n_upper += touched[t] > a;
        }
        if (n_upper > cap - m)
            return -1;
        for (int64_t t = 0; t < n_upper; t++) {
            const int64_t b = touched[t];
            upper_nbr[m] = b;
            upper_wgt[m++] = acc[b];
            out_ptr[a + 1]++;
            out_ptr[b + 1]++;
        }
        upper_ptr[a + 1] = m;
    }

    mirror_upper(c, upper_ptr, upper_nbr, upper_wgt, touched, out_ptr, out_nbr, out_wgt);
    return 2 * m;
}

/* The CSR graph on n nodes of the entries (u[i], v[i], w[i]), i < m:
 * graph._build_py.
 *
 * A loop entry (u[i] == v[i]) adds to loops[u[i]], in input order, as
 * numpy's add.at does. The other entries are counting-sorted by their smaller
 * endpoint a, keeping input order within each group. Each distinct edge
 * (a, b) sums its entries in that order from +0.0, as numpy's bincount does,
 * in a stamped accumulator; the sum is mirrored into the CSR, so both
 * orientations carry the same bits, and each row is sorted by neighbour.
 *
 * u[i] and v[i] lie in [0, n). i_scratch holds 4 n + 3 + m int64 and
 * f_scratch n + m doubles; out_ptr holds n + 1 zeros and loops the starting
 * self-loops; out_nbr and out_wgt have room for 2 m entries. Returns the
 * number of CSR entries written.
 */
int64_t commtrack_build(
    int64_t n, int64_t m, const int64_t *u, const int64_t *v, const double *w,
    int64_t *i_scratch, double *f_scratch,
    int64_t *out_ptr, int64_t *out_nbr, double *out_wgt, double *loops)
{
    /* first[a] .. first[a + 1]: group a's entries (b, w), in input order */
    int64_t *first = i_scratch, *stamp = first + n + 2, *touched = stamp + n;
    int64_t *upper_ptr = touched + n, *group_nbr = upper_ptr + n + 1;
    double *acc = f_scratch, *group_wgt = acc + n;

    memset(first, 0, (size_t)(n + 2) * sizeof *first);
    for (int64_t i = 0; i < m; i++)
        if (u[i] != v[i])
            first[(u[i] < v[i] ? u[i] : v[i]) + 2]++;
    for (int64_t a = 0; a < n; a++) {
        first[a + 2] += first[a + 1];
        stamp[a] = -1;
    }
    for (int64_t i = 0; i < m; i++) {  /* first[a + 1] counts up to a's end */
        const int64_t a = u[i] < v[i] ? u[i] : v[i], b = u[i] < v[i] ? v[i] : u[i];
        if (a == b) {
            loops[a] += w[i];
        } else {
            group_nbr[first[a + 1]] = b;
            group_wgt[first[a + 1]++] = w[i];
        }
    }

    /* the edges of groups up to a are no more than their entries, so each
     * group's sums overwrite entries already read */
    int64_t e = 0;
    upper_ptr[0] = 0;
    for (int64_t a = 0; a < n; a++) {
        int64_t n_touched = 0;
        for (int64_t i = first[a]; i < first[a + 1]; i++) {
            const int64_t b = group_nbr[i];
            if (stamp[b] != a) {
                stamp[b] = a;
                acc[b] = 0.0;
                touched[n_touched++] = b;
            }
            acc[b] += group_wgt[i];
        }
        for (int64_t t = 0; t < n_touched; t++) {
            const int64_t b = touched[t];
            group_nbr[e] = b;
            group_wgt[e++] = acc[b];
            out_ptr[a + 1]++;
            out_ptr[b + 1]++;
        }
        upper_ptr[a + 1] = e;
    }
    mirror_upper(n, upper_ptr, group_nbr, group_wgt, touched, out_ptr, out_nbr, out_wgt);
    return 2 * e;
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

#define FNV_BASIS 14695981039346656037u
#define FNV_PRIME 1099511628211u

/* The number of s[0 .. len), whose FNV-1a hash is h. */
static int64_t intern(interner *t, const char *s, int64_t len, uint64_t h)
{
    for (uint64_t j = (h ^ (h >> 32)) & t->mask;; j = (j + 1) & t->mask) {
        const uint32_t slot = t->slots[j];
        if (slot == 0) {  /* memmove: a re-interned table copies each id onto itself */
            const int64_t at = t->off[t->n];
            memmove(t->text + at, s, (size_t)len);
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

/* The FNV-1a hash of s[0 .. len), as intern takes it. */
static uint64_t fnv1a(const char *s, int64_t len)
{
    uint64_t h = FNV_BASIS;
    for (int64_t i = 0; i < len; i++)
        h = (h ^ (unsigned char)s[i]) * FNV_PRIME;
    return h;
}

/* Tokenize and intern an edge or partition TSV: graph._edge_tokens_py.
 *
 * buf holds the file with every line ending translated to LF. Blank lines
 * and lines starting with '#' are skipped. One byte loop finds each line's
 * tabs and end and hashes its fields. Ids (a one-field line, the first two
 * fields of a line with a tab) are interned as met, third fields in a table
 * of their own; u[i], v[i] and wi[i] number the fields of the i-th line with
 * a tab, wi[i] -1 on a two-field line. When there are one-field lines, the
 * ids are then renumbered as the Python body numbers them: those of
 * one-field lines first, in the order of their first such line (lone[id]
 * counts them as met), then the others in first-seen order; the id text in
 * that order is copied to id_text + len + 1.
 *
 * Capacities, for L = the number of LF bytes + 1: id_off 2L + 1 entries,
 * w_off L + 1, u, v and wi L each, lone 2L zeros, id_text 2 (len + 1) bytes
 * and w_text len + 1; both slot tables are zeroed powers of two over twice
 * their entry counts (masks are size - 1). Returns the number of lines with
 * a tab, or -1 when a line holds more than two tabs. text_len receives the
 * id text's start and length, the third-field text's length and the number
 * of one-field lines.
 */
int64_t commtrack_edge_tokens(
    const char *buf, int64_t len,
    uint32_t *id_slots, int64_t id_mask, int64_t *id_off, char *id_text,
    uint32_t *w_slots, int64_t w_mask, int64_t *w_off, char *w_text,
    int64_t *u, int64_t *v, int64_t *wi, uint32_t *lone, int64_t *text_len)
{
    interner ids = {id_slots, (uint64_t)id_mask, id_off, id_text, 0};
    interner ws = {w_slots, (uint64_t)w_mask, w_off, w_text, 0};
    int64_t m = 0, n_lone = 0, lone_ids = 0;
    id_off[0] = w_off[0] = 0;
    for (int64_t i = 0; i < len; i++) {  /* i: a line's first byte, then its LF */
        if (buf[i] == '#')  /* a comment: on to its LF */
            while (i < len && buf[i] != '\n')
                i++;
        if (i == len || buf[i] == '\n')
            continue;
        /* field k is buf[start[k] .. start[k + 1] - 1); the last one ends at i */
        int64_t start[3] = {i, 0, 0};
        uint64_t h[3] = {0, 0, 0}, hash = FNV_BASIS;
        int n_tab = 0;
        for (; i < len && buf[i] != '\n'; i++) {
            if (buf[i] != '\t') {
                hash = (hash ^ (unsigned char)buf[i]) * FNV_PRIME;
            } else if (n_tab == 2) {
                return -1;
            } else {
                h[n_tab++] = hash;
                hash = FNV_BASIS;
                start[n_tab] = i + 1;
            }
        }
        h[n_tab] = hash;
        if (n_tab == 0) {
            const int64_t id = intern(&ids, buf + start[0], i - start[0], h[0]);
            if (lone[id] == 0)
                lone[id] = (uint32_t)++lone_ids;
            n_lone++;
            continue;
        }
        u[m] = intern(&ids, buf + start[0], start[1] - 1 - start[0], h[0]);
        v[m] = intern(&ids, buf + start[1], (n_tab == 2 ? start[2] - 1 : i) - start[1], h[1]);
        wi[m++] = n_tab == 2 ? intern(&ws, buf + start[2], i - start[2], h[2]) : -1;
    }
    text_len[0] = lone_ids > 0 ? len + 1 : 0;
    for (int64_t id = 0; lone_ids > 0 && id < ids.n; id++) {
        if (lone[id] == 0)
            lone[id] = (uint32_t)++lone_ids;
        id_slots[lone[id] - 1] = (uint32_t)id;  /* no longer probed: the slots list the new order */
    }
    for (int64_t k = 0, at = 0; text_len[0] > 0 && k < ids.n; k++) {
        const int64_t *o = id_off + id_slots[k];
        memcpy(id_text + len + 1 + at, id_text + o[0], (size_t)(o[1] - o[0]));
        at += o[1] - o[0];
    }
    for (int64_t e = 0; text_len[0] > 0 && e < m; e++) {
        u[e] = (int64_t)lone[u[e]] - 1;
        v[e] = (int64_t)lone[v[e]] - 1;
    }
    text_len[1] = id_off[ids.n];
    text_len[2] = w_off[ws.n];
    text_len[3] = n_lone;
    return m;
}

/* Write rows of table entries as TSV lines: graph._write_rows_py.
 *
 * Entry i of the table is text[off[i] .. off[i + 1] - 1), followed by a tab,
 * the tokenizer's convention. Row r holds the entries cols[0][r], ...,
 * cols[n_cols - 1][r] (n_cols >= 1, each entry in the table), written joined
 * by tabs and ended by LF. Rows lo, lo + 1, ... before n_rows go into out, of
 * cap bytes, while each fits whole. Returns the number written; *size
 * receives their bytes. */
int64_t commtrack_write_rows(
    const char *text, const int64_t *off, int64_t lo, int64_t n_rows, int64_t n_cols,
    const int64_t *const *cols, char *out, int64_t cap, int64_t *size)
{
    int64_t r = lo;
    for (*size = 0; r < n_rows; r++) {
        int64_t at = *size;
        for (int64_t j = 0; j < n_cols; j++) {
            const int64_t c = cols[j][r], len = off[c + 1] - off[c];
            if (len > cap - at)
                return r - lo;  /* row r does not fit */
            memcpy(out + at, text + off[c], (size_t)len);  /* the entry and its tab */
            at += len;
        }
        out[at - 1] = '\n';
        *size = at;
    }
    return r - lo;
}

/* Line outcomes of commtrack_cdr_tokens, the first three codes of
 * ingest._STATUSES. */
enum { CDR_IN_WINDOW, CDR_OUT_OF_WINDOW, CDR_DEFER };

/* Whether s[0 .. len) is the lower-case ASCII word in any letter case. */
static int is_word(const char *s, int64_t len, const char *word)
{
    int64_t i = 0;
    for (; i < len && word[i] != '\0'; i++)
        if ((s[i] | 0x20) != word[i])
            return 0;
    return i == len && word[i] == '\0';
}

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

static int two_digits(const char *s)
{
    return (s[0] - '0') * 10 + (s[1] - '0');
}

/* year * 12 + month - 1 of a canonical timestamp: YYYY-MM-DDTHH:MM:SS with
 * ASCII digits, hour 00-23, minute and second 00-59, naming a real date, a
 * form every supported Python's datetime.fromisoformat reads as a naive time
 * in that month; -1 for any other text. */
static int64_t canonical_month(const char *s, int64_t len)
{
    static const char shape[] = "dddd-dd-ddTdd:dd:dd";
    static const int days[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
    if (len != 19)
        return -1;
    for (int i = 0; i < 19; i++)
        if (shape[i] == 'd' ? !is_digit(s[i]) : s[i] != shape[i])
            return -1;
    const int year = two_digits(s) * 100 + two_digits(s + 2);
    const int month = two_digits(s + 5), day = two_digits(s + 8);
    const int leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
    if (two_digits(s + 11) > 23 || two_digits(s + 14) > 59 || two_digits(s + 17) > 59 || year < 1
        || month < 1 || month > 12 || day < 1 || day > days[month - 1] + (month == 2 && leap))
        return -1;
    return (int64_t)year * 12 + month - 1;
}

/* Decide and intern a block of well-formed CDR records: ingest._CdrTokensPy
 * for those lines, every other line marked CDR_DEFER for the Python validator.
 *
 * Line i is buf[bounds[i] .. bounds[i + 1]). It is a well-formed record when
 * all its bytes, but one trailing LF, lie in 0x21-0x7E, so no strip() can
 * change it, and it has five fields: two ids, non-empty and different; a
 * canonical timestamp; call or sms in any case; and a duration of 1-18 ASCII
 * digits, all zeros for sms. A record whose first byte is o or O may be a
 * header, so it is not decided here either. status[i] receives
 * CDR_IN_WINDOW or CDR_OUT_OF_WINDOW for a decided line, CDR_DEFER for any
 * other, before any of its ids is interned. The origin and target of
 * each in-window line are interned in line order into u[j] and v[j]. A month
 * index idx lies in the window when lo < idx <= hi.
 *
 * The ids go into the run's table (slots, mask, off, text), which holds
 * *n_ids ids; *n_ids receives the count after. For n lines the table has
 * room for 2n more ids: off 2n more entries, text bounds[n] more bytes,
 * slots a power of two of at least twice the ids it may then hold (mask is
 * its size - 1). status, u and v hold n entries each. Returns the number of
 * in-window lines.
 */
int64_t commtrack_cdr_tokens(
    const char *buf, int64_t n, const int64_t *bounds, int64_t lo, int64_t hi,
    uint32_t *slots, int64_t mask, int64_t *off, char *text, int64_t *n_ids,
    uint8_t *status, int64_t *u, int64_t *v)
{
    interner ids = {slots, (uint64_t)mask, off, text, *n_ids};
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        const char *p = buf + bounds[i], *end = buf + bounds[i + 1];
        if (end > p && end[-1] == '\n')
            end--;
        /* field k starts at f[k]; the first five starts are kept */
        const char *f[5] = {p};
        int n_fields = 1, plain = 1;
        for (const char *q = p; q < end && plain; q++) {
            plain = *q >= 0x21 && *q <= 0x7E;
            if (*q == ',' && n_fields++ < 5)
                f[n_fields - 1] = q + 1;
        }
        status[i] = CDR_DEFER;
        if (!plain || n_fields != 5)
            continue;
        int64_t len[5];
        for (int k = 0; k < 5; k++)
            len[k] = (k < 4 ? f[k + 1] - 1 : end) - f[k];
        const int64_t month = canonical_month(f[2], len[2]);
        const int sms = is_word(f[3], len[3], "sms");
        int digits = len[4] >= 1 && len[4] <= 18, zero = 1;
        for (int64_t k = 0; k < len[4] && digits; k++) {
            digits = is_digit(f[4][k]);
            zero &= f[4][k] == '0';
        }
        if ((*p | 0x20) == 'o' || len[0] == 0 || len[1] == 0
            || (len[0] == len[1] && memcmp(f[0], f[1], (size_t)len[0]) == 0)
            || month < 0 || !(sms || is_word(f[3], len[3], "call")) || !digits || (sms && !zero))
            continue;
        if (month <= lo || month > hi) {
            status[i] = CDR_OUT_OF_WINDOW;
            continue;
        }
        status[i] = CDR_IN_WINDOW;
        u[m] = intern(&ids, f[0], len[0], fnv1a(f[0], len[0]));
        v[m] = intern(&ids, f[1], len[1], fnv1a(f[1], len[1]));
        m++;
    }
    *n_ids = ids.n;
    return m;
}

/* Number n strings in the run's CDR id table, as commtrack_cdr_tokens
 * does: string k is buf[o[k] .. o[k + 1] - 1), each followed by one byte of
 * no string, the layout of the table's own text, and number[k] receives
 * its number. The table holds *n_ids ids and has room for n more; *n_ids
 * receives the count after. Re-interning the table's own text (buf text, o
 * off) into zeroed slots with *n_ids 0 gives each id its number again. */
void commtrack_intern(
    const char *buf, int64_t n, const int64_t *o,
    uint32_t *slots, int64_t mask, int64_t *off, char *text, int64_t *n_ids, int64_t *number)
{
    interner ids = {slots, (uint64_t)mask, off, text, *n_ids};
    for (int64_t k = 0; k < n; k++) {
        const int64_t len = o[k + 1] - o[k] - 1;
        number[k] = intern(&ids, buf + o[k], len, fnv1a(buf + o[k], len));
    }
    *n_ids = ids.n;
}
