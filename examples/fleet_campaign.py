#!/usr/bin/env python3
"""Ghost-in-the-Wireless at fleet scale: depleting a whole deployment.

The single-victim ``energy_depletion.py`` demo drains one sensor.  Real
deployments are buildings full of them — so this campaign builds a
multi-PAN fleet on the cell-grid medium, lets it report normally
for a baseline run, then repeats the run with one WazaBee flooder per PAN
rotating ack-requested frames across every battery-powered node.  The
comparison shows the three fleet-level symptoms the paper's §VII residual
risk implies: battery drain across the population, the first node deaths,
and CSMA-CA congestion (retries and backoffs) for the traffic that is
still legitimate.

Run:  python examples/fleet_campaign.py
"""

from repro.experiments.fleet import format_fleet_report, run_fleet_campaign
from repro.zigbee.fleet import make_fleet

NODES = 36
PANS = 3
DURATION_S = 3.0


def run(attack: bool, duration_s: float = DURATION_S):
    spec = make_fleet(num_nodes=NODES, num_pans=PANS, seed=11)
    return run_fleet_campaign(
        spec,
        duration_s=duration_s,
        attack=attack,
        flood_rate_hz=120.0,
    )


def main() -> None:
    print(f"simulating {NODES} nodes / {PANS} PANs, {DURATION_S:g} s each...")
    baseline = run(attack=False)
    attacked = run(attack=True)
    print()
    print("--- baseline ---")
    print(format_fleet_report(baseline))
    print()
    print("--- under attack ---")
    print(format_fleet_report(attacked))
    print()
    drop = baseline.battery_curve[-1] - attacked.battery_curve[-1]
    print(
        f"the campaign burned an extra {drop:.0%} of the fleet's batteries "
        f"and left {attacked.alive_curve[-1]}/{attacked.battery_powered} "
        "battery nodes alive"
    )
    assert baseline.ledger_balanced and attacked.ledger_balanced


if __name__ == "__main__":
    main()
