"""A miniature 386BSD kernel, built to be profiled.

This package is the reproduction's substrate: a working (simulated-state)
kernel containing every subsystem the paper's case study profiles, each
function registered so the instrumentation pass can plant triggers in it:

* :mod:`repro.kernel.kfunc` — the function registry and the execution
  context glue (trigger emission, time costing, interrupt windows);
* :mod:`repro.kernel.sched` — processes, run queue, ``swtch``,
  ``tsleep``/``wakeup``;
* :mod:`repro.kernel.intr` — spl interrupt priority levels, ``ISAINTR``
  dispatch and the software-interrupt (AST) emulation the paper measures;
* :mod:`repro.kernel.clock` — ``hardclock``/``softclock``/callouts;
* :mod:`repro.kernel.vm` — Mach-derived VM: pmap, maps, fault handling,
  kernel memory;
* :mod:`repro.kernel.net` — mbufs, the WD8003E driver, IP/TCP/UDP with a
  real ones-complement checksum, sockets;
* :mod:`repro.kernel.fs` — buffer cache, vnodes, a small FFS and an NFS
  client;
* :mod:`repro.kernel.drivers` — IDE disk and console;
* :mod:`repro.kernel.kernel` — the kernel object that boots it all.
"""


def import_all() -> None:
    """Import every kernel module so the function registry is complete.

    The instrumentation pass walks the registry the way the real compiler
    walks the source tree — it must see *all* modules, including ones the
    kernel only exercises lazily, or their functions silently compile
    without triggers (and their children splice into the caller in every
    trace).  Called by the system builder before compiling.
    """
    import repro.kernel.clock  # noqa: F401
    import repro.kernel.drivers.cons  # noqa: F401
    import repro.kernel.drivers.tty  # noqa: F401
    import repro.kernel.drivers.wd  # noqa: F401
    import repro.kernel.fs.buf  # noqa: F401
    import repro.kernel.fs.ffs  # noqa: F401
    import repro.kernel.fs.nfs  # noqa: F401
    import repro.kernel.fs.vnode  # noqa: F401
    import repro.kernel.intr  # noqa: F401
    import repro.kernel.ipc  # noqa: F401
    import repro.kernel.libkern  # noqa: F401
    import repro.kernel.malloc  # noqa: F401
    import repro.kernel.net.ether  # noqa: F401
    import repro.kernel.net.if_we  # noqa: F401
    import repro.kernel.net.in_cksum  # noqa: F401
    import repro.kernel.net.ip  # noqa: F401
    import repro.kernel.net.mbuf  # noqa: F401
    import repro.kernel.net.socket  # noqa: F401
    import repro.kernel.net.tcp  # noqa: F401
    import repro.kernel.net.udp  # noqa: F401
    import repro.kernel.proc  # noqa: F401
    import repro.kernel.sched  # noqa: F401
    import repro.kernel.syscalls  # noqa: F401
    import repro.kernel.userprof  # noqa: F401
    import repro.kernel.vm.kmem  # noqa: F401
    import repro.kernel.vm.pmap  # noqa: F401
    import repro.kernel.vm.vm_fault  # noqa: F401
    import repro.kernel.vm.vm_glue  # noqa: F401
    import repro.kernel.vm.vm_map  # noqa: F401
    import repro.kernel.vm.vm_page  # noqa: F401
