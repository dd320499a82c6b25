"""Empty: the double-double mode is gone, replaced by the exact numerators
of ``phases``.  The file stays only because the benchmark's tracer imports
every module of its ``LAYERS`` list; it goes with that entry."""
