/* Y = P G for a symmetric n x n Kalman block P, reading only its upper
 * triangle, once, for every column of G.
 *
 * P is column-major with leading dimension n (column j holds P[0..j, j]
 * above the diagonal); G and Y are column-major n x m.  The entry point
 * takes m == 1 or m a multiple of 4: the caller pads 2 or 3 columns with
 * zeros.
 *
 * Bit rule: every column of Y is computed by the same sequence of
 * floating-point operations whatever m is, and whatever the vector width
 * of the build.  All sums are written out in a fixed order -- 8 partial
 * sums per (column of G, column of P) for the dot products, combined by
 * one fixed tree -- and the library is built with -ffp-contract=off and
 * without -ffast-math, so the compiler may vectorise but not reassociate
 * or fuse.  A batched pass over m columns therefore gives each column
 * the bits a one-column pass gives it.
 */
#include <stddef.h>

#define LANES 8

static inline double sum_lanes(const double *a)
{
    return ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
}

/* One pass over the triangle for M (1 or 4) columns.  For each group of
 * 4 stored columns j0..j0+3: rows above the group add P[i, j] g[j] to
 * y[i] (the stored column as an axpy) and accumulate P[i, j] g[i] into
 * column j's dot product (the mirrored row); the 4 x 4 diagonal block is
 * then finished in scalar order.  Columns left over (n mod 4) go one at
 * a time the same way. */
static inline void pass(ptrdiff_t n, const double *restrict p, const double *restrict g,
                        double *restrict y, const int M)
{
    for (ptrdiff_t k = 0; k < n * M; k++)
        y[k] = 0.0;

    ptrdiff_t j0 = 0;
    for (; j0 + 4 <= n; j0 += 4) {
        const double *cols[4] = {p + j0 * n, p + (j0 + 1) * n, p + (j0 + 2) * n,
                                 p + (j0 + 3) * n};
        const double *p0 = cols[0], *p1 = cols[1], *p2 = cols[2], *p3 = cols[3];
        const ptrdiff_t body = j0 - j0 % LANES;
        double acc[4][4][LANES]; /* [column of G][stored column][lane] */
        double b[4][4];          /* g[j0 + jj] of each column of G */
        for (int c = 0; c < M; c++)
            for (int jj = 0; jj < 4; jj++) {
                b[c][jj] = g[c * n + j0 + jj];
                for (int l = 0; l < LANES; l++)
                    acc[c][jj][l] = 0.0;
            }
        ptrdiff_t i = 0;
        for (; i < body; i += LANES) {
            for (int c = 0; c < M; c++) {
                const double *gc = g + c * n;
                double *yc = y + c * n;
                for (int l = 0; l < LANES; l++) {
                    const double gi = gc[i + l];
                    yc[i + l] = yc[i + l] + p0[i + l] * b[c][0] + p1[i + l] * b[c][1]
                                + p2[i + l] * b[c][2] + p3[i + l] * b[c][3];
                    acc[c][0][l] = acc[c][0][l] + p0[i + l] * gi;
                    acc[c][1][l] = acc[c][1][l] + p1[i + l] * gi;
                    acc[c][2][l] = acc[c][2][l] + p2[i + l] * gi;
                    acc[c][3][l] = acc[c][3][l] + p3[i + l] * gi;
                }
            }
        }
        for (int l = 0; i < j0; i++, l++) {
            for (int c = 0; c < M; c++) {
                const double gi = g[c * n + i];
                double *yc = y + c * n;
                yc[i] = yc[i] + p0[i] * b[c][0] + p1[i] * b[c][1] + p2[i] * b[c][2]
                        + p3[i] * b[c][3];
                acc[c][0][l] = acc[c][0][l] + p0[i] * gi;
                acc[c][1][l] = acc[c][1][l] + p1[i] * gi;
                acc[c][2][l] = acc[c][2][l] + p2[i] * gi;
                acc[c][3][l] = acc[c][3][l] + p3[i] * gi;
            }
        }
        for (int c = 0; c < M; c++) {
            const double *gc = g + c * n;
            double *yc = y + c * n;
            for (int jj = 0; jj < 4; jj++) {
                const double *pj = cols[jj];
                const ptrdiff_t j = j0 + jj;
                double s = sum_lanes(acc[c][jj]);
                for (ptrdiff_t r = j0; r < j; r++) {
                    s = s + pj[r] * gc[r];
                    yc[r] = yc[r] + pj[r] * gc[j];
                }
                yc[j] = yc[j] + (s + pj[j] * gc[j]);
            }
        }
    }
    for (ptrdiff_t j = j0; j < n; j++) {
        const double *pj = p + j * n;
        const ptrdiff_t body = j - j % LANES;
        for (int c = 0; c < M; c++) {
            const double *gc = g + c * n;
            double *yc = y + c * n;
            const double b = gc[j];
            double a[LANES] = {0};
            ptrdiff_t i = 0;
            for (; i < body; i += LANES) {
                for (int l = 0; l < LANES; l++) {
                    yc[i + l] = yc[i + l] + pj[i + l] * b;
                    a[l] = a[l] + pj[i + l] * gc[i + l];
                }
            }
            for (int l = 0; i < j; i++, l++) {
                yc[i] = yc[i] + pj[i] * b;
                a[l] = a[l] + pj[i] * gc[i];
            }
            yc[j] = yc[j] + (sum_lanes(a) + pj[j] * b);
        }
    }
}

static void pass1(ptrdiff_t n, const double *p, const double *g, double *y)
{
    pass(n, p, g, y, 1);
}

static void pass4(ptrdiff_t n, const double *p, const double *g, double *y)
{
    pass(n, p, g, y, 4);
}

/* Y = P G for m == 1, or m a multiple of 4 (one triangle read per 4
 * columns). */
void tri_pg(int n, const double *p, const double *g, double *y, int m)
{
    if (m == 1) {
        pass1(n, p, g, y);
        return;
    }
    for (int c = 0; c + 4 <= m; c += 4)
        pass4(n, p, g + (ptrdiff_t)c * n, y + (ptrdiff_t)c * n);
}
