/* A balance pass: every step of the merit order, from the first to the last.
 *
 * _kernels.py compiles this file on first import with fixed flags, among
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
 * `ledger` holds nine rows of `n` doubles, row k at `ledger + k * n`, in
 * the order of _kernels.py's ROW_* constants: baseload, renewables to
 * demand, charge from renewables, charge from dispatch, discharge,
 * curtailed, dispatch, unserved, state of charge.
 */

void firmdispatch_balance(
    const double *demand, const double *gen, long n, double dt, double baseload,
    double power, double cap, double efficiency, double soc, double dispatch_cap,
    int charge_from_dispatch, int idle, double *ledger)
{
    const double efficiency_dt = efficiency * dt;
    for (long t = 0; t < n; t++) {
        const double d = demand[t], g = gen[t];
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
        cell[2 * n] = charge;
        cell[3 * n] = extra;
        cell[4 * n] = discharge;
        cell[5 * n] = surplus - charge;
        cell[6 * n] = dispatched;
        cell[7 * n] = residual - dispatched;
        cell[8 * n] = soc;
    }
}
