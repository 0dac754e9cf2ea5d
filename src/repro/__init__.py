"""repro: a reproduction of "Hardware Profiling of Kernels" (McRae, 1993).

The package rebuilds the paper's complete system in simulation:

* :mod:`repro.profiler` -- the EPROM-socket hardware trace recorder;
* :mod:`repro.instrument` -- the modified-compiler tag machinery and the
  two-stage ``_ProfileBase`` link;
* :mod:`repro.analysis` -- the trace decode, call-tree reconstruction and
  the paper's two reports;
* :mod:`repro.sim` -- the simulated 40 MHz 386 PC with its ISA bus;
* :mod:`repro.kernel` -- a miniature 386BSD with every subsystem the case
  study profiles (scheduler, spl interrupts, VM/pmap, TCP/IP over mbufs,
  FFS + buffer cache + NFS, WD8003E and IDE drivers);
* :mod:`repro.workloads` -- the case-study workloads (network receive,
  fork/exec, file I/O, NFS);
* :mod:`repro.baselines` -- the profiling methods the paper rejects.

Every name is imported from the module that defines it; the packages
export nothing.  Quickstart::

    from repro.system import build_case_study
    from repro.workloads.network_recv import network_receive

    system = build_case_study()
    capture = system.profile(lambda: network_receive(system.kernel))
    print(system.report(capture))
"""

__version__ = "1.0.0"
