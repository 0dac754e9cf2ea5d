"""The commands of ``python -m repro``, one module each.

``repro.cli.<command>`` holds the command's handler and its
``arguments`` builder; :mod:`repro.__main__` dispatches to the module of
the command it runs and imports no other.  :mod:`repro.cli.reports`
prints the reports ``capture`` and ``analyze`` share.
"""
