/* The C side of firmdispatch: the balance pass, and the elementwise and
 * reduction steps that numpy's would take around it, bit for bit.
 *
 * A balance pass runs every step of the merit order, from the first to the
 * last.  _kernels.py compiles this file on first import with fixed flags, among
 * them -ffp-contract=off: a fused multiply-add would round
 * `efficiency * charge * dt` once where the reference loop rounds twice.
 * Each statement is the reference loop's, in its order, on IEEE doubles, so
 * the rows are the same bit for bit.
 *
 * `flow` is renewables minus the demand baseload leaves: the surplus where
 * positive, the residual demand negated where negative (`a - b` is exactly
 * `-(b - a)`).  A step with surplus has no residual demand left, so it
 * charges or discharges, never both, and a zero flow does neither.  A
 * surplus into a full battery and a deficit on an empty one clamp to a
 * headroom or a stored energy of zero, which is exactly what the reference
 * loop writes there.  An idle battery, one that cannot act on any flow,
 * skips the battery: its flows stay +0.0 and its charge where it started.
 *
 * The caller checks that `soc` starts in [0, cap]; the clamps keep it
 * there, so no headroom, stored energy or flow is negative and the
 * reference loop's floors at zero never change a value.
 *
 * The renewable output of a step is `wind_gw * wind[t] + pv_gw * pv[t]`,
 * numpy's `wind_gw * wind + pv_gw * pv` element by element.
 *
 * `ledger` holds ten rows of `n` doubles, row k at `ledger + k * n`, in
 * the order of _kernels.py's ROW_* constants: baseload, renewables to
 * demand, battery charge, charge from dispatch, discharge, curtailed,
 * dispatch, unserved, state of charge, dispatch draw.  The battery charge
 * is the charge from renewables plus the top-up from dispatch, and the
 * dispatch draw what dispatch serves plus that top-up: each figure the
 * program reads is one row, so every reduction below reads one vector.
 *
 * The text of a CSV run is read and written here too, with CPython's own
 * float parser and formatter, so every value and every byte is the one
 * `float()` and `repr()` give.  The caller hands them over as pointers,
 * so this library links no Python symbol, and calls these two functions
 * with the GIL held, which the parser's and the formatter's allocator
 * need.
 */

#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

void firmdispatch_balance(
    const double *demand, const double *wind, double wind_gw, const double *pv, double pv_gw,
    long n, double dt, double baseload,
    double power, double cap, double efficiency, double soc, double dispatch_cap,
    int charge_from_dispatch, int idle, double *ledger)
{
    const double efficiency_dt = efficiency * dt;
    for (long t = 0; t < n; t++) {
        const double d = demand[t];
        const double g = wind_gw * wind[t] + pv_gw * pv[t];
        const double base = baseload > d ? d : baseload;
        double residual = d - base;
        const double step = g - residual;
        const double to_demand = g > residual ? residual : g;
        residual -= to_demand;
        const double surplus = g - to_demand;

        double charge = 0.0, extra = 0.0, discharge = 0.0;
        if (!idle) {
            if (step > 0.0) {
                charge = step;
                if (charge > power)
                    charge = power;
                const double headroom = (cap - soc) / efficiency_dt;
                if (charge > headroom)
                    charge = headroom;
                soc += efficiency * charge * dt;
                if (soc > cap)
                    soc = cap;
            } else if (step < 0.0) {
                discharge = -step;
                if (discharge > power)
                    discharge = power;
                const double available = soc / dt;
                if (discharge > available)
                    discharge = available;
                soc -= discharge * dt;
                if (soc < 0.0)
                    soc = 0.0;
            }

            /* top up from spare dispatch only in steps the battery is not
             * discharging; simultaneous charge and discharge would be churn.
             * What the battery leaves to dispatch is the flow negated in a
             * deficit, and +0.0 otherwise. */
            if (charge_from_dispatch && discharge == 0.0) {
                double dispatched = step < 0.0 ? -step : 0.0;
                if (dispatched > dispatch_cap)
                    dispatched = dispatch_cap;
                const double spare = dispatch_cap - dispatched;
                const double power_left = power - charge;
                if (spare > 0.0 && power_left > 0.0) {
                    extra = spare;
                    if (extra > power_left)
                        extra = power_left;
                    const double headroom = (cap - soc) / efficiency_dt;
                    if (extra > headroom)
                        extra = headroom;
                    soc += efficiency * extra * dt;
                    if (soc > cap)
                        soc = cap;
                }
            }
            residual -= discharge;
        }

        const double dispatched = residual > dispatch_cap ? dispatch_cap : residual;
        double *const cell = ledger + t;
        cell[0] = base;
        cell[n] = to_demand;
        cell[2 * n] = charge + extra;
        cell[3 * n] = extra;
        cell[4 * n] = discharge;
        cell[5 * n] = surplus - charge;
        cell[6 * n] = dispatched;
        cell[7 * n] = residual - dispatched;
        cell[8 * n] = soc;
        cell[9 * n] = dispatched + extra;
    }
}

/* `out[t] = a[t] * x`: numpy's `a * x` bit for bit. */
void firmdispatch_scale(const double *a, double x, long n, double *out)
{
    for (long t = 0; t < n; t++)
        out[t] = a[t] * x;
}

/* numpy's pairwise summation sums blocks of at most this many values */
#define BLOCK 128

/* numpy's pairwise summation of a contiguous float64 vector, in its order:
 * below 8 values a plain loop from 0.0; up to BLOCK values eight
 * accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
 * tail; above BLOCK the halves split at n / 2 rounded down to a multiple
 * of 8, each summed the same way. */
static double pairwise(const double *a, long n)
{
    if (n < 8) {
        double res = 0.0;
        for (long i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n > BLOCK) {
        long half = n / 2;
        half -= half % 8;
        return pairwise(a, half) + pairwise(a + half, n - half);
    }
    double r[8];
    long i;
    for (int j = 0; j < 8; j++)
        r[j] = a[j];
    for (i = 8; i < n - n % 8; i += 8)
        for (int j = 0; j < 8; j++)
            r[j] += a[i + j];
    double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* `np.sum(a)` bit for bit: numpy adds the pairwise sum to the identity 0.0. */
double firmdispatch_sum(const double *a, long n)
{
    return 0.0 + pairwise(a, n);
}

/* `np.max(a)` of n >= 1 values none of which is NaN: every series is
 * checked finite, and a pass makes no NaN of finite inputs.  The greatest
 * value is exact in any order, so four running maxima keep the compares
 * apart.  Where it is zero it is +0.0 if any value is +0.0, while numpy
 * signs it by its SIMD lanes; a +0.0 anywhere leaves its lane at zero, so
 * only a zero top needs the scan for one. */
double firmdispatch_max(const double *a, long n)
{
    double m[4] = {-HUGE_VAL, -HUGE_VAL, -HUGE_VAL, -HUGE_VAL};
    long i = 0;
    for (; i + 4 <= n; i += 4)
        for (int j = 0; j < 4; j++)
            m[j] = a[i + j] > m[j] ? a[i + j] : m[j];
    for (; i < n; i++)
        m[0] = a[i] > m[0] ? a[i] : m[0];
    double top = m[0];
    for (int j = 1; j < 4; j++)
        top = m[j] > top ? m[j] : top;
    if (top != 0.0)
        return top;
    for (i = 0; i < n; i++)
        if (a[i] == 0.0 && !signbit(a[i]))
            return 0.0;
    return -0.0;
}

/* The first step whose value is not in [lo, hi], a NaN included, or n. */
long firmdispatch_first_outside(const double *a, long n, double lo, double hi)
{
    for (long t = 0; t < n; t++)
        if (!(a[t] >= lo && a[t] <= hi))
            return t;
    return n;
}

/* CPython's PyOS_string_to_double, whose PyObject * is opaque here,
 * PyOS_double_to_string and PyMem_Free. */
typedef double (*string_to_double)(const char *s, char **end, void *overflow_exception);
typedef char *(*double_to_string)(double x, char format, int precision, int flags, int *type);
typedef void (*mem_free)(void *p);

/* Py_DTSF_ADD_DOT_0 of pystrtod.h: a whole number keeps its ".0" */
#define ADD_DOT_0 0x02

/* The blanks `float()` strips around a number, but the line ends. */
static int is_blank(char c)
{
    return c == ' ' || c == '\t' || c == '\v' || c == '\f';
}

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* The end of the run of digits from `p`, at most `end`. */
static const char *skip_digits(const char *p, const char *end)
{
    while (p < end && is_digit(*p))
        p++;
    return p;
}

/* The values of the `len` bytes at `text`, the body of a value-only CSV
 * file, into `out`, which holds one double per line; their count, or -1.
 * An empty line ("\n" or "\r\n") is skipped.  Every other line must be
 * blanks, one decimal [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?, blanks, then
 * "\n", "\r\n" or the end; anything else, a lone "\r" among it, gives -1.
 * Only the decimal itself is handed to `parse`, which `float()` calls on
 * the same span once it strips the blanks, and it must end where the
 * span does.  The last span, when it ends the text, is parsed from a
 * copy, since the parser reads one byte past a number: nothing past `len`
 * is read. */
long firmdispatch_read_values(const char *text, long len, double *out, string_to_double parse)
{
    const char *p = text;
    const char *const end = text + len;
    long count = 0;
    while (p < end) {
        if (*p == '\n') {
            p++;
            continue;
        }
        if (*p == '\r' && end - p > 1 && p[1] == '\n') {
            p += 2;
            continue;
        }
        while (p < end && is_blank(*p))
            p++;
        const char *const start = p;
        if (p < end && (*p == '+' || *p == '-'))
            p++;
        const char *const whole = p;
        p = skip_digits(p, end);
        int digits = p > whole;
        if (p < end && *p == '.') {
            const char *const fraction = ++p;
            p = skip_digits(p, end);
            digits |= p > fraction;
        }
        if (!digits)
            return -1;
        if (p < end && (*p == 'e' || *p == 'E')) {
            p++;
            if (p < end && (*p == '+' || *p == '-'))
                p++;
            const char *const exponent = p;
            p = skip_digits(p, end);
            if (p == exponent)
                return -1;
        }
        const char *const stop = p;
        while (p < end && is_blank(*p))
            p++;
        if (p < end) {
            if (*p == '\n')
                p++;
            else if (*p == '\r' && end - p > 1 && p[1] == '\n')
                p += 2;
            else
                return -1;
        }

        const size_t span = (size_t)(stop - start);
        char *parsed = NULL;
        if (stop < end) {
            out[count] = parse(start, &parsed, NULL);
            if (parsed != stop)
                return -1;
        } else {
            char *const copy = malloc(span + 1);
            if (copy == NULL)
                return -1;
            memcpy(copy, start, span);
            copy[span] = '\0';
            out[count] = parse(copy, &parsed, NULL);
            const int whole_span = parsed == copy + span;
            free(copy);
            if (!whole_span)
                return -1;
        }
        count++;
    }
    return count;
}

/* Rows `start` to `stop - 1` of the `ncols` columns at `cols` as CSV lines
 * into `out`; the number of bytes written, or -1 if `repr` fails.  A line
 * is the step as "%ld", then per column a comma and the text of
 * `repr(x, 'r', 0, ADD_DOT_0, NULL)`, float.__repr__'s own call, freed
 * with `release`.  That text is at most 24 bytes ("-2.2250738585072014e-308"),
 * so `out` must hold 21 + 25 * ncols bytes per row. */
long firmdispatch_format_rows(const double *const *cols, long ncols, long start, long stop,
                              char *out, double_to_string repr, mem_free release)
{
    char *p = out;
    for (long t = start; t < stop; t++) {
        p += sprintf(p, "%ld", t);
        for (long k = 0; k < ncols; k++) {
            char *const cell = repr(cols[k][t], 'r', 0, ADD_DOT_0, NULL);
            if (cell == NULL)
                return -1;
            const size_t size = strlen(cell);
            *p++ = ',';
            memcpy(p, cell, size);
            p += size;
            release(cell);
        }
        *p++ = '\n';
    }
    return p - out;
}
