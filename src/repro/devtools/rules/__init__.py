"""Rule modules — importing this package registers every REP rule."""

from . import lock_order      # noqa: F401  REP001 + REP006
from . import wallclock       # noqa: F401  REP002
from . import mutable_globals  # noqa: F401  REP003
from . import ufunc_at        # noqa: F401  REP005

__all__ = ["lock_order", "wallclock", "mutable_globals", "ufunc_at"]
