/* The package's compiled kernels, built into one library by commtrack._native.
 *
 * Each function is a twin of a pure-Python body that documents its contract
 * and runs when no library can be built; both produce the same bits. The
 * caller allocates every array, checks its dtype, layout and bounds, and
 * passes raw pointers. The library is built with -ffp-contract=off so no
 * multiply-add is fused.
 *
 * Five kernels: the level-1 Louvain sweep, the community sums and the graph
 * projection (Louvain phase 2) around it, the edge and partition TSV
 * tokenizer and the CDR line tokenizer. The sums and the projection add in
 * numpy's order, so their floating-point results are bit-identical to the
 * numpy twins'. The CDR tokenizer decides only the lines it can decide
 * exactly and marks every other line for the Python validator.
 */
#include <stdint.h>
#include <string.h>

/* One level-1 sweep of the Louvain move rule: louvain._sweep_py.
 *
 * The same arithmetic in the same order. Slots are numbered in ascending
 * community-key order, so "smallest key" on equal scores is "smallest slot".
 *
 * Scratch: weight, stamp and touched hold one entry per slot (c slots) and
 * serve every sweep of a level; stamp is reset to -1 here, so no mark of an
 * earlier sweep survives. active is one zeroed byte per node, new for each
 * call. Returns the number of moves; on return active[v] is 1 for every node
 * v that moved or neighbours a node that did. Which nodes the next sweep
 * visits, and in what order, is the caller's.
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

/* The graph on c nodes that node u maps to as new_index[u] in [-1, c), or
 * leaves out at -1: graph._project_py.
 *
 * The same sums in numpy's order: the new self-loops add the kept
 * self-loops in node order, then the halves (w * 0.5) of the CSR entries
 * inside one new node in CSR order. The weight of a new edge (a, b), a < b,
 * adds its CSR entries from a to b over a's members in node order, each
 * row in order. Each edge is summed once and mirrored into the CSR, so both
 * orientations carry the same bits; each row is sorted by neighbour.
 *
 * i_scratch holds 4 c + n + 3 + cap int64 and f_scratch c + cap doubles;
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
    int64_t *touched = stamp + c, *upper_ptr = touched + c, *upper_nbr = upper_ptr + c + 1;
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
                if (b > a) {
                    if (stamp[b] != a) {
                        stamp[b] = a;
                        acc[b] = 0.0;
                        touched[n_touched++] = b;
                    }
                    acc[b] += wgt[e];
                }
            }
        }
        out_loops[a] = loop;
        if (n_touched > cap - m)
            return -1;
        for (int64_t t = 0; t < n_touched; t++) {
            const int64_t b = touched[t];
            upper_nbr[m] = b;
            upper_wgt[m++] = acc[b];
            out_ptr[a + 1]++;
            out_ptr[b + 1]++;
        }
        upper_ptr[a + 1] = m;
    }

    int64_t *next = touched;  /* the next free entry of each row */
    for (int64_t a = 0; a < c; a++) {
        out_ptr[a + 1] += out_ptr[a];
        next[a] = out_ptr[a];
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
    return 2 * m;
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

/* Tokenize and intern an edge or partition TSV: graph._edge_tokens_py.
 *
 * buf holds the file with every line ending translated to LF. Blank lines
 * and lines starting with '#' are skipped. One-field lines are interned
 * first, then the first two fields of each line with a tab in file order,
 * so ids are numbered in first-seen order; the third fields are interned in
 * a table of their own. Per such line i, u[i] and v[i] are the ids of its
 * first two fields and wi[i] the third field's number, or -1 on a
 * two-field line.
 *
 * Capacities, for L = the number of LF bytes + 1: id_off 2L + 1 entries,
 * w_off L + 1, u, v and wi L each, both texts len + 1 bytes; both slot
 * tables are zeroed powers of two over twice their entry counts (masks are
 * size - 1). Returns the number of lines with a tab, or -1 when a line
 * holds more than two tabs; text_len[0] and text_len[1] receive the
 * lengths of the id and the third-field text, text_len[2] the number of
 * one-field lines.
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
    int64_t m = 0, n_lone = 0;
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
                if (n_tab == 0) {
                    intern(&ids, p, eol - p);
                    n_lone++;
                }
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
    text_len[2] = n_lone;
    return m;
}

/* Line statuses of commtrack_cdr_tokens, in the order of ingest._STATUSES. */
enum {
    CDR_IN_WINDOW, CDR_OUT_OF_WINDOW, CDR_BLANK, CDR_HEADER,
    CDR_FIELD_COUNT, CDR_EMPTY_ID, CDR_SELF_RECORD, CDR_BAD_TIMESTAMP,
    CDR_BAD_KIND, CDR_BAD_DURATION, CDR_SMS_NONZERO_DURATION, CDR_DEFER
};

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
 * ASCII digits, hour 00-23, minute and second 00-59, a form every supported
 * Python's datetime.fromisoformat reads as a naive time in that month;
 * -1 when it names no date, -2 when the text is not in that form. */
static int64_t canonical_month(const char *s, int64_t len)
{
    static const char shape[] = "dddd-dd-ddTdd:dd:dd";
    static const int days[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
    if (len != 19)
        return -2;
    for (int i = 0; i < 19; i++)
        if (shape[i] == 'd' ? !is_digit(s[i]) : s[i] != shape[i])
            return -2;
    if (two_digits(s + 11) > 23 || two_digits(s + 14) > 59 || two_digits(s + 17) > 59)
        return -2;
    const int year = two_digits(s) * 100 + two_digits(s + 2);
    const int month = two_digits(s + 5), day = two_digits(s + 8);
    const int leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
    if (year < 1 || month < 1 || month > 12 || day < 1 || day > days[month - 1] + (month == 2 && leap))
        return -1;
    return (int64_t)year * 12 + month - 1;
}

/* Judge and intern a block of CDR lines: ingest._cdr_tokens_py, apart from
 * the lines it marks CDR_DEFER for the Python validator.
 *
 * Line i is buf[bounds[i] .. bounds[i + 1]). A line is decided here only
 * when all its bytes, but one trailing LF, lie in 0x21-0x7E, so no strip()
 * can change it; then the checks run in the validator's order. Its
 * timestamp must be in canonical form, its duration at most 18 ASCII
 * digits; anything else (offsets, signs, underscores, long digit runs) is
 * deferred. status[i] receives the line's status. The origin and target of
 * each in-window line are interned in line order into u[j] and v[j].
 * A month index idx lies in the window when lo < idx <= hi.
 *
 * Capacities, for n lines: off 2n + 1 entries, text bounds[n] + 1 bytes,
 * status, u and v n each; slots is a zeroed power of two of at least 4n
 * entries (mask is its size - 1). Returns the number of in-window lines;
 * text_len receives the length of the id text.
 */
int64_t commtrack_cdr_tokens(
    const char *buf, int64_t n, const int64_t *bounds, int64_t lo, int64_t hi,
    uint32_t *slots, int64_t mask, int64_t *off, char *text,
    uint8_t *status, int64_t *u, int64_t *v, int64_t *text_len)
{
    interner ids = {slots, (uint64_t)mask, off, text, 0};
    int64_t m = 0;
    off[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        const char *p = buf + bounds[i], *end = buf + bounds[i + 1];
        if (end > p && end[-1] == '\n')
            end--;
        /* field k starts at f[k]; the first six starts are kept */
        const char *f[6] = {p};
        int n_fields = 1, plain = 1;
        for (const char *q = p; q < end && plain; q++) {
            plain = *q >= 0x21 && *q <= 0x7E;
            if (*q == ',' && n_fields++ < 6)
                f[n_fields - 1] = q + 1;
        }
        if (!plain) {
            status[i] = CDR_DEFER;
            continue;
        }
        if (p == end) {
            status[i] = CDR_BLANK;
            continue;
        }
        int64_t len[5];
        for (int k = 0; k < 5 && k < n_fields; k++)
            len[k] = (k + 1 < n_fields ? f[k + 1] - 1 : end) - f[k];
        if (n_fields > 1 && is_word(f[0], len[0], "origin") && is_word(f[1], len[1], "target")) {
            status[i] = CDR_HEADER;
            continue;
        }
        if (n_fields != 5) {
            status[i] = CDR_FIELD_COUNT;
            continue;
        }
        if (len[0] == 0 || len[1] == 0) {
            status[i] = CDR_EMPTY_ID;
            continue;
        }
        if (len[0] == len[1] && memcmp(f[0], f[1], (size_t)len[0]) == 0) {
            status[i] = CDR_SELF_RECORD;
            continue;
        }
        const int64_t month = canonical_month(f[2], len[2]);
        if (month < 0) {
            status[i] = month == -1 ? CDR_BAD_TIMESTAMP : CDR_DEFER;
            continue;
        }
        const int sms = is_word(f[3], len[3], "sms");
        if (!sms && !is_word(f[3], len[3], "call")) {
            status[i] = CDR_BAD_KIND;
            continue;
        }
        int digits = len[4] >= 1 && len[4] <= 18, zero = 1;
        for (int64_t k = 0; k < len[4] && digits; k++) {
            digits = is_digit(f[4][k]);
            zero &= f[4][k] == '0';
        }
        if (!digits) {
            status[i] = CDR_DEFER;
            continue;
        }
        if (sms && !zero) {
            status[i] = CDR_SMS_NONZERO_DURATION;
            continue;
        }
        if (month <= lo || month > hi) {
            status[i] = CDR_OUT_OF_WINDOW;
            continue;
        }
        status[i] = CDR_IN_WINDOW;
        u[m] = intern(&ids, f[0], len[0]);
        v[m] = intern(&ids, f[1], len[1]);
        m++;
    }
    text_len[0] = off[ids.n];
    return m;
}
