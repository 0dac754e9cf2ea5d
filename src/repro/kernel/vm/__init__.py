"""The Mach-derived virtual memory subsystem.

The paper: "The virtual memory management subsystem of 386BSD was derived
from the Mach memory management code; ... the old BSD VM code was ripped
from the kernel, and the Mach memory management code placed next to the
kernel and hot glue poured down the middle."  The measured consequences:

* ``vm_fault`` is surprisingly cheap (~410 us);
* creating and destroying VM contexts is abysmal — fork ~24 ms and exec
  ~28 ms, dominated by the ``pmap`` module (``pmap_pte`` called 1053
  times per fork, huge ``pmap_remove`` calls at exec/exit), with "a major
  amount of cross-calling between the pmap module and the rest of the
  virtual memory subsystem".

The structure here mirrors that split: machine-dependent page tables in
:mod:`repro.kernel.vm.pmap`, machine-independent objects/pages/maps in
the ``vm_*`` modules, and the glue (fork/exec/exit support) in
:mod:`repro.kernel.vm.vm_glue` — cross-calling included.
"""
