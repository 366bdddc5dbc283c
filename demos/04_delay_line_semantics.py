"""Why the dual-BRAM delay line works: read-before-write bank recycling.

The annealer needs two history planes per replica: spins at step t (for
interaction sums) and at step t-1 (for the replica-coupling term). A
shift-register design keeps three full planes. The two-bank design keeps
only two: the bank holding the t-1 plane is recycled in place as the
destination for t+1 writes. That is safe because the spin-serial schedule
reads each t-1 address exactly once — in the same cycle that overwrites it
— and reads happen before writes commit. The last section runs one
finalize phase over the whole plane, as run_hw does: on dual-BRAM the plane
that receives the t+1 words is the t-1 bank itself.
"""

import numpy as np

from ssqa import DualBramDelay, ShiftRegDelay

plane_t = np.array([[+1], [+1], [+1]])
plane_tm1 = np.array([[-1], [-1], [-1]])

bram = DualBramDelay(plane_t, plane_tm1)
shift = ShiftRegDelay(plane_t, plane_tm1)

print("same-cycle collision: write sigma(t+1) to address 0, then read it")
bram.write(0, [+1])
print(f"  read_t(0)       -> {bram.read_t(0)[0]:+d}   (pre-write word, plane t)")
print(f"  read_tminus1(0) -> {bram.read_tminus1(0)[0]:+d}   (pre-write word, plane t-1)")
bram.end_cycle()
print("after end_cycle the write is committed:")
print(f"  read_tminus1(0) -> {bram.read_tminus1(0)[0]:+d}   (t-1 word at 0 is gone)")
assert bram.read_tminus1(0)[0] != plane_tm1[0, 0], "dual-BRAM t-1 word 0 was not overwritten"
print(f"  read_tminus1(1) -> {bram.read_tminus1(1)[0]:+d}   (unwritten address survives)")

print("\nthe shift register keeps the full t-1 plane instead:")
shift.write(0, [+1])
shift.end_cycle()
print(f"  read_tminus1(0) -> {shift.read_tminus1(0)[0]:+d}   (three planes, nothing lost)")
assert shift.read_tminus1(0)[0] == plane_tm1[0, 0], "shift-register t-1 word 0 changed"

print("\nafter advance_step both designs expose the same planes again:")
for name, d in (("dual_bram", bram), ("shift_register", shift)):
    # Finish writing the remaining addresses, as the datapath always does.
    d.write(1, [+1])
    d.write(2, [-1])
    d.advance_step()
    print(f"  {name:15s} t plane: {[int(d.read_t(a)[0]) for a in range(3)]} "
          f"t-1 plane: {[int(d.read_tminus1(a)[0]) for a in range(3)]}")

print("\none whole-plane FIN phase, as run_hw runs it (address ... is every word):")
for name, cls in (("dual_bram", DualBramDelay), ("shift_register", ShiftRegDelay)):
    d = cls(plane_t, plane_tm1)
    old = d.read_tminus1(...)  # a read-only view of every t-1 word, read first
    print(f"  {name:15s} t-1 words read: {old[:, 0].tolist()}")
    words = d.next_plane()
    print(f"  {'':15s} next_plane() shares the t-1 bank: {np.shares_memory(words, old)}")
    words[...] = [[+1], [-1], [+1]]  # the t+1 words, written in place
    d.write(..., words)              # commits them: nothing is queued or copied
    print(f"  {'':15s} the t-1 view after the writes: {old[:, 0].tolist()}")
    d.advance_step()
    print(f"  {'':15s} t plane after advance_step: {d.read_t(...)[:, 0].tolist()}")
