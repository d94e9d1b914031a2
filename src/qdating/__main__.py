try:
    from .cli import entrypoint
except (MemoryError, SystemError) as exc:
    # Too little memory to load the program.  CPython's compiler then raises
    # MemoryError, or SystemError when it loses the MemoryError on the way.
    raise SystemExit(f"error: {type(exc).__name__}") from None

entrypoint()
