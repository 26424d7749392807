"""Stake-backed light-client protocols over a deterministic PoS simulation.

Two client modes are implemented end to end: the economic one, which waits
out a watcher-audited challenge period at zero cost, and the insured one,
which buys slashable-stake-backed coverage and accepts data instantly.

The package root exports what README's "Library use" block imports, and the
chain and pricing names a reference check reads; everything else is imported
from its submodule.
"""

from .actors import ProviderStrategy
from .chain import Chain, Transaction
from .harness import build_scenario, run_scenario, sweep
from .light_client import Protocol
from .pricing import PricingParams, eth_to_wei, premium

__version__ = "0.1.0"
