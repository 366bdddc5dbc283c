"""Golden digests of engine results: one sha256 per named case.

Each case runs an engine (or scores a state) and hashes what it returns:
best state, best value and replica, per-replica finals, every int64 plane
of a recorded trace, and the CycleReport fields of a run_hw run. A change
that leaves every digest unchanged leaves those results unchanged bit for
bit. tests/test_digests.py checks the digests in tests/data/digests.json.

    PYTHONPATH=src python tests/make_digests.py [--rewrite]

records the digest of every case the file lacks. It exits 1, naming each
recorded case whose digest now differs or that is no longer generated, and
writes nothing then; --rewrite records every case as it now computes (only
when results are meant to change).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from ssqa.gset import load_instance
from ssqa.hwsim import run_hw
from ssqa.ising import (IsingModel, WeightedGraph, energy, maxcut_to_ising,
                        pseudo_quantum_energy, replica_cuts)
from ssqa.rng import RngStreams
from ssqa.schedules import AnnealParams, LinearSchedule, QSchedule
from ssqa.solver import run_ssa, run_ssqa

DIGESTS = Path(__file__).resolve().parent / "data" / "digests.json"


def _feed(h, value):
    """Hash an array with its dtype and shape, or anything else by repr."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())


def _digest(result, report=None) -> str:
    h = hashlib.sha256()
    for value in (result.best_state, result.best_value, result.best_replica,
                  result.per_replica_final, result.objective, result.steps_executed):
        _feed(h, value)
    for sigma, is_acc in result.trace or ():
        _feed(h, sigma)
        _feed(h, is_acc)
    if report is not None:
        _feed(h, dataclasses.astuple(report))
    return h.hexdigest()


def _low_bits(n, replicas) -> str:
    """Digest of two consecutive low-bit blocks of n draws and the states
    they leave."""
    streams = RngStreams(3, replicas)
    h = hashlib.sha256()
    for _ in range(2):
        _feed(h, streams.next_block(n, low_bit=True))
    _feed(h, streams.states)
    return h.hexdigest()


def _small_models():
    """(name, model, graph, params, delay kind, sparse bypass) of 48 random
    models with h != 0, four rounds of weight bits 4/8/12, open and periodic
    replica chains, sparse and dense rows. graph carries the couplings as
    weights. Rounds after the first add -2, -3, -4 to the name and shift the
    delay kind and bypass pattern, so each configuration meets both kinds."""
    rng = np.random.default_rng(2024)
    cases = []
    configs = itertools.product((4, 8, 12), (True, False), (0.25, 1.0))
    for k, (bits, periodic, density) in enumerate(list(configs) * 4):
        turn = k // 12
        n = int(rng.integers(6, 24))
        lim = 1 << (bits - 1)
        couplings = tuple((i, j, int(rng.integers(-lim, lim)))
                          for i, j in itertools.combinations(range(n), 2)
                          if rng.random() < density)
        model = IsingModel(n, rng.integers(-lim, lim, size=n), couplings, bits)
        graph = WeightedGraph(n, couplings)
        i0 = lim * n // 4
        params = AnnealParams(steps=25, replicas=int(rng.integers(1, 6)), seed=k + 1,
                              q=QSchedule(0, 3, 4, 0.5),
                              i0=LinearSchedule(i0 // 2 + 1, i0 + 1),
                              n_rnd=LinearSchedule(lim, 0), periodic_replicas=periodic)
        name = f"b{bits}-{'periodic' if periodic else 'open'}-{'dense' if density == 1 else 'sparse'}"
        if turn:
            name += f"-{turn + 1}"
        cases.append((name, model, graph, params, ("dual_bram", "shift_register")[(k + turn) % 2],
                      (k + turn) % 3 != 0))
    return cases


def _cases():
    """Yield (name, thunk) of every case; a thunk returns the case's digest."""
    graphs = {name: load_instance(name) for name in ("G11", "G14")}
    models = {name: maxcut_to_ising(g) for name, g in graphs.items()}
    for name, seed in itertools.product(graphs, (1, 2, 3)):
        yield (f"ssqa-{name}-s{seed}",
               lambda name=name, seed=seed: _digest(
                   run_ssqa(models[name], AnnealParams(seed=seed), graphs[name])))
    yield ("ssa-G11-5000steps",
           lambda: _digest(run_ssa(models["G11"], AnnealParams(steps=5000, seed=1), graphs["G11"])))
    ramp = AnnealParams(steps=30, replicas=4, seed=5, i0=LinearSchedule(3, 9))
    for kind in ("dual_bram", "shift_register"):
        yield (f"hw-G11-i0ramp-{kind}",
               lambda kind=kind: _digest(*run_hw(models["G11"], ramp, kind, graph=graphs["G11"],
                                                 record_trace=True)))
    # i0 = 2^40 needs the int64 step dtype.
    wide = AnnealParams(steps=12, replicas=3, seed=4, i0=LinearSchedule.constant(2**40))
    yield ("ssqa-G11-i0-2^40",
           lambda: _digest(run_ssqa(models["G11"], wide, graphs["G11"], record_trace=True)))
    yield ("hw-G11-i0-2^40",
           lambda: _digest(*run_hw(models["G11"], wide, graph=graphs["G11"], record_trace=True)))
    # G11 has N = 800, so a noise block holds 5 steps: 6 steps cross a block
    # boundary. Both delay kinds: the last step's commit and the final readout.
    for steps in (0, 1, 6):
        short = AnnealParams(steps=steps, seed=7)
        yield (f"ssqa-G11-{steps}steps",
               lambda short=short: _digest(run_ssqa(models["G11"], short, graphs["G11"],
                                                    record_trace=True)))
        yield (f"hw-G11-{steps}steps",
               lambda short=short: _digest(*run_hw(models["G11"], short, graph=graphs["G11"],
                                                   record_trace=True)))
        yield (f"hw-G11-{steps}steps-shift_register",
               lambda short=short: _digest(*run_hw(models["G11"], short, "shift_register",
                                                   graph=graphs["G11"], record_trace=True)))
    # Wide planes: R = 80 and 480 over 6 steps, which cross a 5-step noise block.
    for replicas in (80, 480):
        wide_plane = AnnealParams(steps=6, replicas=replicas, seed=8)
        yield (f"ssqa-G11-R{replicas}-6steps",
               lambda wide_plane=wide_plane: _digest(
                   run_ssqa(models["G11"], wide_plane, graphs["G11"], record_trace=True)))
    yield ("hw-G11-R80-6steps",
           lambda: _digest(*run_hw(models["G11"], AnnealParams(steps=6, replicas=80, seed=8),
                                   graph=graphs["G11"], record_trace=True)))
    # Lane blocks: at R = 1, 20 lanes of 5 G11 steps a call, so 203 steps are
    # two 100-step blocks and a 3-step tail; at R = 3, 30-step blocks of 6
    # lanes, then a shorter lane block and a tail.
    yield ("ssa-G11-203steps",
           lambda: _digest(run_ssa(models["G11"], AnnealParams(steps=203, seed=9), graphs["G11"],
                                   record_trace=True)))
    narrow = AnnealParams(steps=67, replicas=3, seed=9)
    yield ("ssqa-G11-R3-67steps",
           lambda: _digest(run_ssqa(models["G11"], narrow, graphs["G11"], record_trace=True)))
    yield ("hw-G11-R3-67steps",
           lambda: _digest(*run_hw(models["G11"], narrow, graph=graphs["G11"], record_trace=True)))
    # Saturation off the paper's rule: alpha other than 1, and i0 ramps that
    # start at or below 0 (where i0 - alpha < -i0) and rise past it.
    off_rule = {"alpha0": dict(alpha=0), "alpha2": dict(alpha=2), "alpha-1": dict(alpha=-1),
                "i0ramp0to4": dict(i0=LinearSchedule(0, 4)),
                "i0ramp-2to3": dict(i0=LinearSchedule(-2, 3))}
    for label, kw in off_rule.items():
        saturation = AnnealParams(steps=20, replicas=3, seed=11, **kw)
        yield (f"ssqa-G11-{label}",
               lambda saturation=saturation: _digest(
                   run_ssqa(models["G11"], saturation, graphs["G11"], record_trace=True)))
        yield (f"hw-G11-{label}",
               lambda saturation=saturation: _digest(
                   *run_hw(models["G11"], saturation, graph=graphs["G11"], record_trace=True)))
    for n, replicas in itertools.product((4000, 4095), (1, 20, 480)):
        yield f"lowbits-n{n}-R{replicas}", lambda n=n, replicas=replicas: _low_bits(n, replicas)
    for name, model, graph, params, kind, bypass in _small_models():
        def hw(model=model, graph=graph, params=params, kind=kind, bypass=bypass):
            return _digest(*run_hw(model, params, kind, graph=graph, sparse_bypass=bypass,
                                   record_trace=True))

        def scores(model=model, graph=graph, params=params):
            plane = np.random.default_rng(params.seed).choice([-1, 1], size=(model.n, 7))
            h = hashlib.sha256()
            _feed(h, replica_cuts(graph, plane))
            _feed(h, [energy(model, plane[:, k]) for k in range(plane.shape[1])])
            return h.hexdigest()

        def pqe(model=model, params=params):
            spins = np.random.default_rng(params.seed).choice([-1, 1], size=(5, model.n))
            return hashlib.sha256(repr([pseudo_quantum_energy(model, spins, q, periodic)
                                        for q in (0, 3, 1.5) for periodic in (True, False)])
                                  .encode()).hexdigest()

        yield f"hw-{name}", hw
        yield f"score-{name}", scores
        yield f"pqe-{name}", pqe


def compute() -> dict:
    """Digest of every case, by name."""
    return {name: thunk() for name, thunk in _cases()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record the golden result digests.")
    parser.add_argument("--rewrite", action="store_true",
                        help="record every case as computed now, changed digests included")
    args = parser.parse_args(argv)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    computed = compute()
    changed = sorted(name for name in recorded.keys() & computed.keys()
                     if recorded[name] != computed[name])
    gone = sorted(recorded.keys() - computed.keys())
    if (changed or gone) and not args.rewrite:
        for name in changed:
            print(f"digest changed: {name}", file=sys.stderr)
        for name in gone:
            print(f"recorded case no longer generated: {name}", file=sys.stderr)
        print(f"{DIGESTS} left as it was; pass --rewrite to record these results",
              file=sys.stderr)
        return 1
    added = sorted(computed.keys() - recorded.keys())
    if args.rewrite or added:
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps(computed, indent=1, sort_keys=True) + "\n")
    print(f"{DIGESTS}: {len(added)} added, {len(changed)} rewritten, {len(gone)} removed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
