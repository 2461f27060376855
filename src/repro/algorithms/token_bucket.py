"""Token Bucket Filter shaping transaction (Figure 4c).

The TBF shaping transaction rate-limits a node of a scheduling tree.  It
maintains a token bucket with rate *r* and burst allowance *B*; each element
is assigned the wall-clock time at which enough tokens will have accumulated
for it to depart.  Figure 4c::

    tokens = min(tokens + r * (now - last_time), B)
    if p.length <= tokens:
        p.send_time = now
    else:
        p.send_time = now + (p.length - tokens) / r
    tokens = tokens - p.length
    last_time = now
    p.rank = p.send_time

Note that tokens may go negative, which is what spaces out a long burst at
exactly rate *r* — each subsequent packet's send time moves further into the
future.  The transaction is that program
(:data:`repro.lang.programs.TOKEN_BUCKET_SOURCE`).
"""

from __future__ import annotations

from typing import Optional

from ..lang.bridge import CompiledShapingTransaction
from ..lang.programs import token_bucket_program


def TokenBucketShapingTransaction(
    rate_bps: float,
    burst_bytes: float,
    initial_tokens_bytes: Optional[float] = None,
) -> CompiledShapingTransaction:
    """Figure 4c's token bucket limiting a node to ``rate_bps`` bits/s.

    ``burst_bytes`` is the bucket depth ``B``; the bucket starts with
    ``initial_tokens_bytes`` (default: full, the common configuration where
    an idle class may send one burst at line rate).
    """
    if rate_bps <= 0:
        raise ValueError("rate_bps must be positive")
    return token_bucket_program(rate_bps / 8.0, burst_bytes,
                                initial_tokens_bytes)

