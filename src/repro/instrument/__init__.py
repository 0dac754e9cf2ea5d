"""Compiler-side instrumentation: the "modified GNU C compiler".

The paper modifies gcc so every compiled function gets a one-instruction
trigger in its prologue and epilogue — a ``movb _ProfileBase+tag`` read of
the EPROM window.  This package implements the same contract against the
simulated kernel's function registry:

* :mod:`repro.instrument.tags` — the tag value scheme (even entry tags,
  ``+1`` exit tags, ``!`` context-switch and ``=`` inline modifiers);
* :mod:`repro.instrument.namefile` — the ``name/value`` file the compiler
  reads and auto-extends, including multi-file concatenation;
* :mod:`repro.instrument.compiler` — the instrumentation pass with
  per-module selection (the paper's macro- vs micro-profiling knob),
  assembler-routine stubs, inline triggers and overhead accounting;
* :mod:`repro.instrument.linker` — the two-stage link that resolves
  ``_ProfileBase`` against the kernel's post-remap virtual address map.
"""
