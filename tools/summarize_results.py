#!/usr/bin/env python3
"""Summarize results/*.json into the EXPERIMENTS.md tables.

Reads the artifacts `figures all` (cargo run --release -p nomad-bench
--bin figures -- all) writes under results/ and prints paper-vs-measured
tables in markdown, so EXPERIMENTS.md can be refreshed after a re-run.
"""
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RES = os.path.join(ROOT, "results")


def load(name):
    with open(os.path.join(RES, f"{name}.json")) as f:
        return json.load(f)


def geomean(xs):
    xs = [x for x in xs if x > 0]
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def headline():
    rows = load("fig09")
    by = {(r["workload"], r["scheme"]): r for r in rows}
    wls = sorted({r["workload"] for r in rows}, key=lambda w: [r["workload"] for r in rows].index(w))
    vs_tdc = geomean(by[(w, "NOMAD")]["ipc"] / by[(w, "TDC")]["ipc"] for w in wls)
    vs_tid = geomean(by[(w, "NOMAD")]["ipc"] / by[(w, "TiD")]["ipc"] for w in wls)
    buf = [r["buffer_hit_rate"] for r in rows if r["scheme"] == "NOMAD" and r["buffer_hit_rate"] > 0]
    lat = [r["tag_mgmt_latency"] for r in rows if r["scheme"] == "NOMAD"]
    print("## headline")
    print(f"NOMAD vs TDC: {100*(vs_tdc-1):+.1f}%  (paper +16.7%)")
    print(f"NOMAD vs TiD: {100*(vs_tid-1):+.1f}%  (paper +25.5%)")
    print(f"buffer-hit rate: {100*sum(buf)/len(buf):.1f}%  (paper 91.6%)")
    print(f"NOMAD tag latency means: {min(lat):.0f}..{max(lat):.0f} cycles")
    f11 = load("fig11")
    by11 = {(r["workload"], r["scheme"]): r for r in f11}
    reds = []
    for w in {r["workload"] for r in f11}:
        t, n = by11[(w, "TDC")]["os_stall_ratio"], by11[(w, "NOMAD")]["os_stall_ratio"]
        if t > 0:
            reds.append(1 - n / t)
    print(f"stall reduction avg: {100*sum(reds)/len(reds):.1f}%  (paper 76.1%)")


def fig09_table():
    rows = load("fig09")
    by = {(r["workload"], r["scheme"]): r for r in rows}
    order = []
    for r in rows:
        if r["workload"] not in order:
            order.append(r["workload"])
    print("\n## fig09 (IPC relative to Baseline)")
    print("| class | wl | TiD | TDC | NOMAD | Ideal |")
    print("|---|---|---|---|---|---|")
    for w in order:
        base = by[(w, "Baseline")]["ipc"]
        cls = by[(w, "Baseline")]["class"]
        cells = " | ".join(f"{by[(w, s)]['ipc']/base:.2f}" for s in ["TiD", "TDC", "NOMAD", "Ideal"])
        print(f"| {cls} | {w} | {cells} |")


def table1():
    rows = load("table1")
    print("\n## table1 (RMHB / MPMS, measured vs paper)")
    print("| wl | RMHB paper | RMHB meas | MPMS paper | MPMS meas |")
    print("|---|---|---|---|---|")
    for r in rows:
        print(
            f"| {r['abbr']} | {r['paper_rmhb']:.1f} | {r['rmhb_gbps']:.1f} "
            f"| {r['paper_mpms']:.1f} | {r['llc_mpms']:.0f} |"
        )


def fig11_table():
    rows = load("fig11")
    by = {(r["workload"], r["scheme"]): r for r in rows}
    order = []
    for r in rows:
        if r["workload"] not in order:
            order.append(r["workload"])
    print("\n## fig11 (stall ratios & tag latency)")
    print("| class | wl | TDC stall | NOMAD stall | reduction | NOMAD taglat |")
    print("|---|---|---|---|---|---|")
    for w in order:
        t = by[(w, "TDC")]
        n = by[(w, "NOMAD")]
        red = 100 * (1 - n["os_stall_ratio"] / t["os_stall_ratio"]) if t["os_stall_ratio"] else 0
        print(
            f"| {t['class']} | {w} | {100*t['os_stall_ratio']:.1f}% "
            f"| {100*n['os_stall_ratio']:.1f}% | {red:.0f}% | {n['tag_mgmt_latency']:.0f} |"
        )


def fig02_table():
    rows = load("fig02")
    print("\n## fig02 (TDC/TiD ratio)")
    for r in rows:
        print(f"  {r['workload']}: {r['tdc_over_tid']:.2f} (RMHB {r['rmhb_gbps']:.1f})")


def fig10_sample():
    rows = load("fig10")
    print("\n## fig10 (cact + pr bandwidth rows, GB/s)")
    for r in rows:
        if r["workload"] in ("cact", "pr"):
            g = r["hbm_gbps"]
            print(
                f"  {r['workload']}/{r['scheme']}: dem_rd {g[0]:.1f} dem_wr {g[1]:.1f} "
                f"meta {g[2]:.1f} fill {g[3]:.1f} wb {g[4]:.1f} rowhit {100*r['hbm_row_hit']:.0f}%"
            )


def sweeps():
    for name in ("fig12", "fig13", "fig14"):
        rows = load(name)
        print(f"\n## {name}")
        for r in rows:
            print(
                f"  {r['workload']} cores={r['cores']} pcshrs={r['pcshrs']}: "
                f"ipc {r['ipc']:.3f} stall {100*r['os_stall_ratio']:.1f}% "
                f"taglat {r['tag_mgmt_latency']:.0f} ddr {r['ddr_gbps']:.1f}"
            )
    rows = load("fig15")
    print("\n## fig15")
    for r in rows:
        print(f"  {r['workload']} ({r['pcshrs']},{r['buffers']}): ipc {r['ipc']:.3f} taglat {r['tag_mgmt_latency']:.0f}")
    rows = load("fig16")
    print("\n## fig16")
    for r in rows:
        org = "central" if r["backends"] == 1 else "distrib"
        print(f"  {org} total={r['total_pcshrs']}: ipc {r['ipc']:.3f} taglat {r['tag_mgmt_latency']:.0f}")


if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) > 1 else "all"
    if which in ("all", "headline"):
        headline()
    if which in ("all", "fig09"):
        fig09_table()
    if which in ("all", "table1"):
        table1()
    if which in ("all", "fig11"):
        fig11_table()
    if which in ("all", "fig02"):
        fig02_table()
    if which in ("all", "fig10"):
        fig10_sample()
    if which in ("all", "sweeps"):
        sweeps()
