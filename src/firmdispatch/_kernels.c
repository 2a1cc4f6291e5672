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
 */

#include <math.h>

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
