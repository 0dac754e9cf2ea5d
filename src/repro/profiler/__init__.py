"""The Profiler: McRae's EPROM-socket hardware trace recorder.

This package models the paper's hardware contribution bit-for-bit:

* a free-running **1 MHz, 24-bit microsecond counter** (wraps every ~16.8 s,
  so 16 s is the maximum *inter-event* gap before information is lost);
* a **40-bit-wide trace RAM** — 16-bit event tag + 24-bit counter snapshot
  per record, 16384 records deep, battery-backed for readback;
* **PAL control logic** — a start switch, a store strobe on every EPROM
  read, an address counter, and two LEDs (active, overflow);
* the **EPROM-socket piggy-back adapter** — 16 address lines plus chip
  enable are the only signals tapped, so the board connects to anything
  with a JEDEC ROM socket;
* the **upload path** — records are carried off in the battery-backed RAMs
  and decoded on a host (plus the paper's proposed future-work readback
  mode where the RAMs are multiplexed back into the EPROM window).
"""
