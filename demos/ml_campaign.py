"""A small maximum-likelihood estimation campaign against the bound.

Each trial samples a fresh Poisson sensor field around the emitter,
draws one detection bit per sensor, and fits (P, x, y) by maximizing the
fused Bernoulli likelihood (detection-centroid initializer, coarse grid
guard, then Marquardt-damped Newton steps in log-power).  The summary compares the x-MSE
over converged trials with the Cramer-Rao bound at the true parameters.

Expect a ratio well above 1: the bound uses the information of the
*average* field, while each trial is handed one random field whose own
information varies wildly with how close the nearest sensors happen to
land.  Averaging 1/F over fields sits far above 1/E[F] (and the ML
estimator is not unbiased at this sample size either).

Run:  python3 demos/ml_campaign.py        (a few seconds)

The CLI equivalent:
    binloc simulate --set trials=40 --set tau=0.4 --set seed=1
"""

from __future__ import annotations

from binloc import (DetectorConfig, FieldConfig, SimConfig, TargetParams,
                    expected_fim_quadrature, mse_report, run_campaign)

DET = DetectorConfig(tau=0.40, sigma2=0.25, T=1.0, alpha=2.0)
FIELD = FieldConfig(rho=0.05)
TRUTH = TargetParams(P=2.0, x=0.0, y=0.0)
TRIALS = 40
SEED = 1


def main() -> None:
    cfg = SimConfig(field=FIELD, detector=DET, truth=TRUTH, trials=TRIALS,
                    region_radius=60.0, master_seed=SEED)
    results = run_campaign(cfg)

    print(f"{'trial':>5} {'sensors':>8} {'hits':>5} {'P_hat':>8} "
          f"{'x_hat':>8} {'y_hat':>8} {'conv':>5}")
    for idx, res in enumerate(results[:10]):
        print(f"{idx:5d} {res.n_sensors:8d} {res.n_detections:5d} "
              f"{res.theta_hat.P:8.3f} {res.theta_hat.x:8.3f} "
              f"{res.theta_hat.y:8.3f} {int(res.converged):5d}")
    if len(results) > 10:
        print(f"  ... {len(results) - 10} more trials")

    report = mse_report(results, TRUTH)
    fim = expected_fim_quadrature(DET, TRUTH.P, FIELD)
    print(f"\nconverged:   {report.n_converged}/{report.n_trials}")
    print(f"mse_x:       {report.mse_x:10.4f}   crb_x: {fim.crb_x:10.4f}"
          f"   ratio: {report.mse_x / fim.crb_x:.2f}")
    print(f"mse_P:       {report.mse_P:10.4f}   crb_P: {fim.crb_P:10.4f}"
          f"   ratio: {report.mse_P / fim.crb_P:.2f}")
    print(f"bias (P,x,y): ({report.bias_P:+.3f}, {report.bias_x:+.3f}, "
          f"{report.bias_y:+.3f})")


if __name__ == "__main__":
    main()
