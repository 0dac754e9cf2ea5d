"""Machine-level simulation substrate.

The paper profiles a 40 MHz Intel 386 PC (8 MB RAM, 64 KB external cache)
running 386BSD 0.1, with an 8-bit WD8003E Ethernet controller and an IDE
disk on the ISA bus.  None of that hardware is available to a Python
reproduction, so this package provides the deterministic discrete-event
substitute: a nanosecond-resolution clock, a calibrated CPU/memory cost
model, an ISA-vs-main-memory bus map, an interrupt delivery queue and the
machine assembly that ties devices and the Profiler's EPROM-socket tap
together.

Everything in here is deterministic; there is no wall-clock dependence and
all randomness is injected through explicitly seeded generators by callers.
"""
