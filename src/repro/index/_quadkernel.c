/* Compiled hot kernels: MaxFirst's batched quadrant split (first), the
 * exact tree-pruned kNN of NLC construction (knn_tree_build /
 * knn_tree_search) and the out-of-core planner's tile-halo scan
 * (halo_scan, last), the latter two with their own exactness arguments
 * further down.  All three are bit-identical to numpy fallbacks
 * selected by REPRO_NO_CKERNEL=1.
 *
 * The quadrant split classifies every candidate disk against the four
 * children of one rectangle split at (px, py) in a single pass.  The
 * four children share axis intervals ([xmin,px] / [px,xmax] on x,
 * [ymin,py] / [py,ymax] on y), so only four near/far lane distances are
 * computed per candidate instead of eight — half the floating-point
 * work of four independent rectangle classifications, with no numpy
 * temporaries.
 *
 * Bit-identity contract with CircleSet.classify_rect (the scalar numpy
 * kernel): every arithmetic operation below mirrors the numpy expression
 * with the same operands.  IEEE-754 double add/sub/mul/compare are
 * correctly rounded in both C (SSE2 scalar math) and numpy, and max is
 * exactly associative/commutative for the NaN-free finite inputs used
 * here, so the predicates evaluate to exactly the same booleans.
 * Build with -ffp-contract=off: fusing mul+add into FMA would change
 * rounding and break the contract.
 *
 * The score sums m̂ax = sum(score, Q.I) and m̂in = sum(score, Q.C) are
 * computed here too, over the same compacted runs the scalar kernel's
 * sc.sum() / sc[mask].sum() reduce, by add_reduce below: a port of
 * numpy's float64 pairwise summation that adds in numpy's order, so the
 * sums agree bit for bit (tests/index/test_kernel_sums.py pins this
 * against np.add.reduce on run lengths from 0 to past 40,000).
 *
 * Child order matches Rect.split_at: ll, lr, ul, ur — child c uses
 * x-lane (c & 1) and y-lane (c >> 1).
 *
 * Output layout: per-child runs live in row c of the (4, stride)
 * scratch matrices, compacted in candidate order; counts[c] gives the
 * Q.I run length and sums[2c], sums[2c + 1] the child's m̂ax and m̂in.
 * Everything but the candidates, the split geometry and the run length
 * is fixed per classifier and scratch size, so it arrives bound once in
 * one quad_split_args struct instead of as per-call arguments.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

static inline double dmax(double a, double b) { return a > b ? a : b; }

/* numpy's pairwise summation of a contiguous float64 run (the
 * DOUBLE_pairwise_sum of numpy's loops_utils.h.src): a running sum below
 * 8 terms; up to PW_BLOCKSIZE terms, eight lane accumulators over the
 * multiple-of-8 prefix, combined pairwise, then the tail in order; above
 * it, a split at n/2 rounded down to a multiple of 8. */
#define PW_BLOCKSIZE 128

static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i + 0]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* np.add.reduce of a run: the reduction starts from add's identity,
 * +0.0, and adds the pairwise sum to it — so a run of -0.0 terms (or an
 * empty run) reduces to +0.0, as numpy's does. */
static inline double add_reduce(const double *a, int64_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

typedef struct {
    const double *cx, *cy, *r_in2, *r_out2, *scores;  /* (n_disks,)   */
    int64_t *idx_out;   /* (4, stride) int64  : Q.I indices           */
    uint8_t *mask_out;  /* (4, stride) bool   : containing mask       */
    double *sc_out;     /* (4, stride) double : scores over Q.I       */
    double *csc_out;    /* (4, stride) double : scores over Q.C       */
    int64_t *counts;    /* (4)    |Q.I| per child                     */
    double *sums;       /* (4, 2) m̂ax, m̂in per child                 */
    int64_t stride;
} quad_split_args;

void classify_quad_split(
    const quad_split_args *args,
    const int64_t *cand, int64_t n,
    double xmin, double ymin, double xmax, double ymax,
    double px, double py)
{
    const double *cx = args->cx, *cy = args->cy;
    const double *r_in2 = args->r_in2, *r_out2 = args->r_out2;
    const double *scores = args->scores;
    int64_t *idx_out = args->idx_out;
    uint8_t *mask_out = args->mask_out;
    double *sc_out = args->sc_out, *csc_out = args->csc_out;
    const int64_t stride = args->stride;
    int64_t h[4] = {0, 0, 0, 0};
    int64_t ch[4] = {0, 0, 0, 0};
    double nx2[2], ny2[2], fx2[2], fy2[2];
    for (int64_t i = 0; i < n; i++) {
        const int64_t j = cand[i];
        const double x = cx[j];
        const double y = cy[j];
        const double ri2 = r_in2[j];
        /* near lanes: maximum(maximum(lo - c, 0), c - hi), squared */
        const double nxl = dmax(dmax(xmin - x, 0.0), x - px);
        const double nxh = dmax(dmax(px - x, 0.0), x - xmax);
        const double nyl = dmax(dmax(ymin - y, 0.0), y - py);
        const double nyh = dmax(dmax(py - y, 0.0), y - ymax);
        nx2[0] = nxl * nxl; nx2[1] = nxh * nxh;
        ny2[0] = nyl * nyl; ny2[1] = nyh * nyh;
        if (nx2[0] + ny2[0] >= ri2 && nx2[1] + ny2[0] >= ri2 &&
            nx2[0] + ny2[1] >= ri2 && nx2[1] + ny2[1] >= ri2)
            continue;  /* misses all four children */
        /* far lanes: maximum(c - lo, hi - c), squared */
        const double fxl = dmax(x - xmin, px - x);
        const double fxh = dmax(x - px, xmax - x);
        const double fyl = dmax(y - ymin, py - y);
        const double fyh = dmax(y - py, ymax - y);
        fx2[0] = fxl * fxl; fx2[1] = fxh * fxh;
        fy2[0] = fyl * fyl; fy2[1] = fyh * fyh;
        const double ro2 = r_out2[j];
        const double sc = scores[j];
        for (int c = 0; c < 4; c++) {
            if (nx2[c & 1] + ny2[c >> 1] < ri2) {
                const int64_t o = c * stride + h[c];
                const int contain = fx2[c & 1] + fy2[c >> 1] <= ro2;
                idx_out[o] = j;
                mask_out[o] = (uint8_t)contain;
                sc_out[o] = sc;
                h[c]++;
                if (contain)
                    csc_out[c * stride + ch[c]++] = sc;
            }
        }
    }
    for (int c = 0; c < 4; c++) {
        args->counts[c] = h[c];
        args->sums[2 * c] = add_reduce(sc_out + c * stride, h[c]);
        args->sums[2 * c + 1] = add_reduce(csc_out + c * stride, ch[c]);
    }
}

/* Exact tree-pruned kNN for NLC construction (knn_chunked fast path).
 *
 * knn_tree_build lays a static bucket kd-tree over the sites, once per
 * site set: an implicit complete binary tree of `depth` levels (node i
 * has children 2i+1 and 2i+2), every internal node splitting its
 * points at the median by (coordinate, site index) on the wider axis of
 * its box, every leaf holding at most ~8 sites.  boxes[4i..4i+3] is the
 * tight (xmin, ymin, xmax, ymax) of node i's sites.  The sites are
 * copied into tree order (txy) with their original indices (tidx).
 *
 * knn_tree_search answers each query by a depth-first descent, nearer
 * child first, keeping a bounded max-heap of the k best (d2, index)
 * pairs.  A node is pruned only when the heap is full and the node's
 * box distance² is strictly greater than the heap's k-th d2.
 *
 * Bit-identity contract with the numpy fallback in repro.core.nlc:
 * per pair the squared distance is dx*dx + dy*dy with dx = qx - px,
 * dy = qy - py — the same operand grouping as the numpy broadcast
 * expression, each multiply and add rounded separately (build with
 * -ffp-contract=off).  Output distances are sqrt(d2); C's sqrt and
 * np.sqrt are both IEEE-754 correctly rounded, so they agree bit for
 * bit.  Selection keeps the k smallest by the strict lexicographic
 * (d2, index) order, so distance ties resolve to the lowest site index
 * whatever order the sites are visited in.
 *
 * Why pruning never drops a winner: the box gap per axis is
 * gx = max(xmin - qx, 0, qx - xmax), and the box distance² is
 * gx*gx + gy*gy, grouped like a site's d2.  For a site inside the box,
 * |qx - px| >= gx holds exactly, and IEEE rounding is monotone (and
 * sign-symmetric), so the computed |dx| >= gx, dx*dx >= gx*gx and the
 * computed d2 >= the computed box distance².  A pruned box's distance²
 * exceeds the k-th d2 at pruning time, which only shrinks later, so
 * every site in it has d2 strictly above the final k-th d2 and could
 * not have been selected.  Equal distances are never pruned, so the
 * lowest-index tie-break sees every tied candidate.
 *
 * knn_tree_search returns 0 on success, -1 on invalid k/depth or
 * allocation failure (the caller validates k, so -1 in practice means
 * OOM and the caller falls back to numpy).
 */

#define KNN_MAX_DEPTH 62

static inline int knn_less(double da, int64_t ia, double db, int64_t ib)
{
    return da < db || (da == db && ia < ib);
}

static void knn_sift_down(double *hd, int64_t *hi,
                          int64_t root, int64_t size)
{
    for (;;) {
        int64_t child = 2 * root + 1;
        if (child >= size)
            break;
        if (child + 1 < size &&
            knn_less(hd[child], hi[child], hd[child + 1], hi[child + 1]))
            child++;
        if (knn_less(hd[root], hi[root], hd[child], hi[child])) {
            double td = hd[root]; hd[root] = hd[child]; hd[child] = td;
            int64_t ti = hi[root]; hi[root] = hi[child]; hi[child] = ti;
            root = child;
        } else {
            break;
        }
    }
}

/* Site a orders before site b on `axis` by (coordinate, index). */
static inline int tree_key_less(const double *xy, const int64_t *idx,
                                int64_t a, int64_t b, int axis)
{
    const double ca = xy[2 * a + axis];
    const double cb = xy[2 * b + axis];
    return ca < cb || (ca == cb && idx[a] < idx[b]);
}

static inline void tree_swap(double *xy, int64_t *idx, int64_t a, int64_t b)
{
    double t = xy[2 * a]; xy[2 * a] = xy[2 * b]; xy[2 * b] = t;
    t = xy[2 * a + 1]; xy[2 * a + 1] = xy[2 * b + 1]; xy[2 * b + 1] = t;
    int64_t ti = idx[a]; idx[a] = idx[b]; idx[b] = ti;
}

/* Quickselect: reorder [lo, hi) so position nth holds the site of that
 * rank by (coordinate, index) and every site before it ranks lower.
 * The keys are distinct (indices break coordinate ties), so
 * median-of-three pivots partition duplicate and sorted inputs evenly. */
static void tree_select(double *xy, int64_t *idx, int64_t lo, int64_t hi,
                        int64_t nth, int axis)
{
    while (hi - lo > 1) {
        const int64_t mid = lo + (hi - lo) / 2;
        const int64_t last = hi - 1;
        if (tree_key_less(xy, idx, mid, lo, axis))
            tree_swap(xy, idx, mid, lo);
        if (tree_key_less(xy, idx, last, lo, axis))
            tree_swap(xy, idx, last, lo);
        if (tree_key_less(xy, idx, mid, last, axis))
            tree_swap(xy, idx, mid, last);  /* median now at last */
        int64_t store = lo;
        for (int64_t i = lo; i < last; i++)
            if (tree_key_less(xy, idx, i, last, axis))
                tree_swap(xy, idx, i, store++);
        tree_swap(xy, idx, store, last);
        if (store == nth)
            return;
        if (nth < store)
            hi = store;
        else
            lo = store + 1;
    }
}

static void tree_build_node(double *xy, int64_t *idx, double *boxes,
                            int64_t node, int64_t lo, int64_t hi,
                            int64_t level, int64_t depth)
{
    double x0 = xy[2 * lo], x1 = x0, y0 = xy[2 * lo + 1], y1 = y0;
    for (int64_t j = lo + 1; j < hi; j++) {
        const double x = xy[2 * j], y = xy[2 * j + 1];
        if (x < x0) x0 = x;
        if (x > x1) x1 = x;
        if (y < y0) y0 = y;
        if (y > y1) y1 = y;
    }
    double *box = boxes + 4 * node;
    box[0] = x0; box[1] = y0; box[2] = x1; box[3] = y1;
    if (level == depth)
        return;
    const int axis = (x1 - x0) >= (y1 - y0) ? 0 : 1;
    const int64_t mid = lo + (hi - lo) / 2;
    tree_select(xy, idx, lo, hi, mid, axis);
    tree_build_node(xy, idx, boxes, 2 * node + 1, lo, mid, level + 1, depth);
    tree_build_node(xy, idx, boxes, 2 * node + 2, mid, hi, level + 1, depth);
}

void knn_tree_build(
    const double *points,   /* (n_points, 2) interleaved x,y            */
    int64_t n_points,
    int64_t depth,          /* leaves at this level; 2^(depth+1)-1 nodes */
    double *txy,            /* (n_points, 2) sites in tree order         */
    int64_t *tidx,          /* (n_points) their original indices         */
    double *boxes)          /* (2^(depth+1)-1, 4) node boxes             */
{
    if (n_points < 1)
        return;
    for (int64_t j = 0; j < n_points; j++) {
        txy[2 * j] = points[2 * j];
        txy[2 * j + 1] = points[2 * j + 1];
        tidx[j] = j;
    }
    tree_build_node(txy, tidx, boxes, 0, 0, n_points, 0, depth);
}

/* Box distance², grouped exactly like a site's dx*dx + dy*dy. */
static inline double knn_box_d2(const double *box, double qx, double qy)
{
    const double gx = dmax(dmax(box[0] - qx, 0.0), qx - box[2]);
    const double gy = dmax(dmax(box[1] - qy, 0.0), qy - box[3]);
    return gx * gx + gy * gy;
}

typedef struct {
    int64_t node, lo, hi, level;
    double bd2;
} knn_frame;

int knn_tree_search(
    const double *queries,  /* (n_queries, 2) interleaved x,y   */
    int64_t n_queries,
    const double *txy,      /* knn_tree_build outputs            */
    const int64_t *tidx,
    int64_t n_points,
    const double *boxes,
    int64_t depth,
    int64_t k,
    double *dist_out,       /* (n_queries, k) sorted ascending */
    int64_t *idx_out)       /* (n_queries, k) matching indices */
{
    if (k < 1 || k > n_points || depth < 0 || depth > KNN_MAX_DEPTH)
        return -1;
    double *hd = malloc((size_t)k * sizeof(double));
    int64_t *hi = malloc((size_t)k * sizeof(int64_t));
    if (hd == NULL || hi == NULL) {
        free(hd);
        free(hi);
        return -1;
    }
    /* Each expansion pops one frame and pushes two, so at most one
     * pending sibling per level plus the current frame is stacked. */
    knn_frame stack[KNN_MAX_DEPTH + 2];
    for (int64_t q = 0; q < n_queries; q++) {
        const double qx = queries[2 * q];
        const double qy = queries[2 * q + 1];
        int64_t m = 0;
        int64_t sp = 0;
        /* The root is never pruned: the heap is still empty. */
        stack[sp++] = (knn_frame){0, 0, n_points, 0, 0.0};
        while (sp > 0) {
            const knn_frame f = stack[--sp];
            if (m == k && f.bd2 > hd[0])
                continue;  /* strictly farther than the k-th: prune */
            if (f.level == depth) {
                for (int64_t j = f.lo; j < f.hi; j++) {
                    const double dx = qx - txy[2 * j];
                    const double dy = qy - txy[2 * j + 1];
                    const double d2 = dx * dx + dy * dy;
                    const int64_t id = tidx[j];
                    if (m < k) {
                        int64_t c = m++;
                        hd[c] = d2;
                        hi[c] = id;
                        while (c > 0) {  /* sift up into the max-heap */
                            int64_t p = (c - 1) >> 1;
                            if (!knn_less(hd[p], hi[p], hd[c], hi[c]))
                                break;
                            double td = hd[p]; hd[p] = hd[c]; hd[c] = td;
                            int64_t ti = hi[p]; hi[p] = hi[c]; hi[c] = ti;
                            c = p;
                        }
                    } else if (knn_less(d2, id, hd[0], hi[0])) {
                        hd[0] = d2;
                        hi[0] = id;
                        knn_sift_down(hd, hi, 0, k);
                    }
                }
                continue;
            }
            const int64_t mid = f.lo + (f.hi - f.lo) / 2;
            const int64_t left = 2 * f.node + 1;
            const double dl = knn_box_d2(boxes + 4 * left, qx, qy);
            const double dr = knn_box_d2(boxes + 4 * (left + 1), qx, qy);
            const knn_frame lf = {left, f.lo, mid, f.level + 1, dl};
            const knn_frame rf = {left + 1, mid, f.hi, f.level + 1, dr};
            /* Push the farther child first so the nearer one pops
             * first and tightens the bound sooner. */
            if (dl <= dr) {
                stack[sp++] = rf;
                stack[sp++] = lf;
            } else {
                stack[sp++] = lf;
                stack[sp++] = rf;
            }
        }
        /* heapsort: repeatedly move the current max to the tail, so the
         * scratch arrays end up ascending by (d2, index). */
        for (int64_t c = m - 1; c > 0; c--) {
            double td = hd[0]; hd[0] = hd[c]; hd[c] = td;
            int64_t ti = hi[0]; hi[0] = hi[c]; hi[c] = ti;
            knn_sift_down(hd, hi, 0, c);
        }
        for (int64_t c = 0; c < m; c++) {
            dist_out[q * k + c] = sqrt(hd[c]);
            idx_out[q * k + c] = hi[c];
        }
    }
    free(hd);
    free(hi);
    return 0;
}

/* Tile-halo scan of the out-of-core planner (plan_streamed in
 * repro/engine/outofcore.py): one block of store rows against the tile
 * grid's cut lines, in one sequential pass.
 *
 * Per row, each axis of the disk's extent, widened by the relative
 * slack, is binned against the cut lines: the first cell whose high cut
 * reaches c - reach (np.searchsorted(cuts[1:], c - reach, "left")) up
 * to the last whose low cut does not pass c + reach
 * (np.searchsorted(cuts[:-1], c + reach, "right")), with
 * reach = (|c| + r) * slack + r.  Each (row, cell) pair of that span
 * then takes rects_intersecting's open-disk test, and each hit
 * RectClassifier's graze containment test.  A hit updates the cell's
 * first and last row, its count and its contained flag, and sets the
 * row's bit in the cell's row of the block scratch.
 *
 * Bit-identity contract with the numpy pass (_halo_pairs): the cut
 * lines are non-decreasing, so the binary searches below return
 * numpy's insertion points for every non-NaN bound.  A NaN bound comes
 * only from a NaN or infinite centre or radius and may bin differently
 * (numpy sorts NaN last), but then every pair test fails in both: no
 * comparison with NaN holds, and an infinite centre puts each gap at
 * infinity or NaN.  The pair tests repeat the numpy
 * expressions operand for operand: the near gap per axis is
 * max(max(lo - c, 0), c - hi), a hit is dx*dx + dy*dy < r*r; the far
 * gap is min(lo - c, c - hi) and containment fx*fx + fy*fy <= ro*ro
 * with ro = r + graze_tol — each multiply and add rounded separately
 * (-ffp-contract=off), so every comparison gives numpy's boolean.
 * Every output is an integer or a flag, and none depends on the order
 * rows or cells are visited in.
 *
 * The block scratch row of cell t covers the block's bytes of store
 * rows: byte j holds rows 8 * ((base >> 3) + j) onward.  It is zeroed
 * at the cell's first hit in the block, so only block_counts[t] > 0
 * marks a row worth reading.  Returns 0, or -1 (and does nothing) when
 * the block's rows span more bytes than the scratch stride.
 */

static inline double dmin(double a, double b) { return a < b ? a : b; }

/* np.searchsorted(a, v, side="left") over a non-decreasing run of
 * n >= 1 entries: the number of entries below v.  Branch-free: the
 * halving steps depend on n alone, and each comparison only moves the
 * base, so a row of random centres costs no mispredicted branches. */
static inline int64_t search_left(const double *a, int64_t n, double v)
{
    const double *base = a;
    while (n > 1) {
        const int64_t half = n / 2;
        base += (base[half] < v) * half;
        n -= half;
    }
    return (base - a) + (*base < v);
}

/* np.searchsorted(a, v, side="right"): the number of entries at or
 * below v. */
static inline int64_t search_right(const double *a, int64_t n, double v)
{
    const double *base = a;
    while (n > 1) {
        const int64_t half = n / 2;
        base += (base[half] <= v) * half;
        n -= half;
    }
    return (base - a) + (*base <= v);
}

typedef struct {
    const double *xs, *ys;  /* cut lines: nx + 1 and ny + 1 of them    */
    int64_t nx, ny;         /* cell iy * nx + ix: xs[ix], ys[iy] up    */
    double slack;           /* relative widening of every extent       */
    double graze_tol;       /* the containment test's tolerance        */
    int64_t *first_row;     /* (nx * ny) smallest hit store row        */
    int64_t *last_row;      /* (nx * ny) largest hit store row         */
    int64_t *counts;        /* (nx * ny) hits so far                   */
    uint8_t *contained;     /* (nx * ny) bool: a hit contains the cell */
    int64_t *block_counts;  /* (nx * ny) hits in the current block     */
    uint8_t *block_bits;    /* (nx * ny, stride) the block's row bits  */
    int64_t stride;
} halo_scan_args;

int halo_scan(
    const halo_scan_args *args,
    const double *cx, const double *cy, const double *r,  /* (n,) */
    int64_t n,
    int64_t base)           /* store row of the block's first row */
{
    const double *xs = args->xs, *ys = args->ys;
    const int64_t nx = args->nx, ny = args->ny, stride = args->stride;
    const double slack = args->slack, graze_tol = args->graze_tol;
    int64_t *first_row = args->first_row, *last_row = args->last_row;
    int64_t *counts = args->counts, *block_counts = args->block_counts;
    uint8_t *contained = args->contained, *block_bits = args->block_bits;
    const int64_t first = base >> 3;
    const int64_t width = n > 0 ? ((base + n - 1) >> 3) - first + 1 : 0;
    if (width > stride)
        return -1;
    memset(block_counts, 0, (size_t)(nx * ny) * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++) {
        const double x = cx[i], y = cy[i], rr = r[i];
        const double reach_x = (fabs(x) + rr) * slack + rr;
        const double reach_y = (fabs(y) + rr) * slack + rr;
        const int64_t col_lo = search_left(xs + 1, nx, x - reach_x);
        const int64_t col_hi = search_right(xs, nx, x + reach_x);
        const int64_t row_lo = search_left(ys + 1, ny, y - reach_y);
        const int64_t row_hi = search_right(ys, ny, y + reach_y);
        const double r2 = rr * rr;
        const double ro = rr + graze_tol;
        const double ro2 = ro * ro;
        const int64_t row = base + i;
        const int64_t byte = (row >> 3) - first;
        const uint8_t bit = (uint8_t)(1u << (row & 7));
        for (int64_t iy = row_lo; iy < row_hi; iy++) {
            const double ay = ys[iy] - y;
            const double by = y - ys[iy + 1];
            const double dy = dmax(dmax(ay, 0.0), by);
            const double fy = dmin(ay, by);
            for (int64_t ix = col_lo; ix < col_hi; ix++) {
                const double ax = xs[ix] - x;
                const double bx = x - xs[ix + 1];
                const double dx = dmax(dmax(ax, 0.0), bx);
                if (!(dx * dx + dy * dy < r2))
                    continue;
                const double fx = dmin(ax, bx);
                const int64_t t = iy * nx + ix;
                uint8_t *bits = block_bits + t * stride;
                if (block_counts[t]++ == 0)
                    memset(bits, 0, (size_t)width);
                bits[byte] |= bit;
                counts[t]++;
                if (row < first_row[t])
                    first_row[t] = row;
                if (row > last_row[t])
                    last_row[t] = row;
                if (fx * fx + fy * fy <= ro2)
                    contained[t] = 1;
            }
        }
    }
    return 0;
}
