"""ISA device drivers: the IDE disk and the console."""
