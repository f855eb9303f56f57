"""Pref-PSA-SD: the composite page-size-aware prefetcher (Section IV-B).

Two *identical* prefetcher instances differing only in indexing granularity
— Pref-PSA (4KB regions) and Pref-PSA-2MB (2MB regions) — compete under a
Set-Dueling selector.  Per the paper's findings (Fig. 11):

- ``policy='proposed'``  : **both** prefetchers train on every L2C access;
  only the selected one issues (SD-Proposed, the paper's design);
- ``policy='standard'``  : only the selected prefetcher trains, as in
  classic Set Dueling for replacement policies (SD-Standard — shown to
  underperform due to insufficient training);
- ``policy='page-size'`` : selection is static per access — the 4KB-indexed
  prefetcher for blocks in 4KB pages, the 2MB-indexed one for blocks in
  2MB pages (SD-Page-Size — shown to lose to dynamic selection because
  2MB indexing is sometimes worse even for blocks in 2MB pages).

Both component prefetchers receive the same page-size-aware boundary
window (prefetching is always permitted within the page where the trigger
block resides, never beyond — Section IV-B1).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.memory.address import PAGE_SIZE_2M
from repro.core.psa import L2PrefetchModule, prefetch_window
from repro.core.set_dueling import SetDuelingSelector
from repro.prefetch.base import (
    ISSUER_PSA,
    ISSUER_PSA_2MB,
    BoundaryStats,
    L2Prefetcher,
    PrefetchContext,
    PrefetchRequest,
)
from repro.sim.config import DUELING_POLICIES, DuelingConfig

#: ``factory(region_bits) -> L2Prefetcher`` builds one component instance.
PrefetcherFactory = Callable[[int], L2Prefetcher]


class CompositePSAPrefetcher(L2PrefetchModule):
    """Pref-PSA-SD: Pref-PSA vs Pref-PSA-2MB under Set Dueling."""

    def __init__(self, factory: PrefetcherFactory, num_l2_sets: int,
                 config: Optional[DuelingConfig] = None) -> None:
        self.config = config if config is not None else DuelingConfig()
        if self.config.policy not in DUELING_POLICIES:
            raise ValueError(f"policy must be one of {DUELING_POLICIES}, "
                             f"got {self.config.policy!r}")
        self.pref_psa = factory(12)
        self.pref_psa_2mb = factory(21)
        self.selector = SetDuelingSelector(num_l2_sets, self.config)
        self.stats_psa = BoundaryStats()
        self.stats_psa_2mb = BoundaryStats()
        self.name = f"{self.pref_psa.name}-psa-sd"

    # ------------------------------------------------------------------
    def _select(self, set_index: int, page_size_bit: Optional[int]) -> int:
        if self.config.policy == "page-size":
            return (ISSUER_PSA_2MB if page_size_bit == PAGE_SIZE_2M
                    else ISSUER_PSA)
        return self.selector.selected_for(set_index)

    def on_l2_access(self, block: int, ip: int, hit: bool, set_index: int,
                     page_size_bit: Optional[int],
                     true_page_size: int) -> List[PrefetchRequest]:
        lo, hi = prefetch_window(block, page_size_bit)
        selected = self._select(set_index, page_size_bit)
        train_both = self.config.policy != "standard"
        requests: List[PrefetchRequest] = []
        for issuer, prefetcher, stats in (
                (ISSUER_PSA, self.pref_psa, self.stats_psa),
                (ISSUER_PSA_2MB, self.pref_psa_2mb, self.stats_psa_2mb)):
            is_selected = issuer == selected
            if not is_selected and not train_both:
                continue
            ctx = PrefetchContext(
                block, ip, hit, lo, hi, stats,
                page_size_bit=page_size_bit, true_page_size=true_page_size,
                collect=is_selected, issuer=issuer)
            prefetcher.on_access(ctx)
            if is_selected:
                requests = ctx.requests
        return requests

    # ------------------------------------------------------------------
    def on_useful(self, block: int, issuer: int) -> None:
        self.selector.on_useful(issuer)
        if issuer == ISSUER_PSA:
            self.pref_psa.on_prefetch_useful(block)
        elif issuer == ISSUER_PSA_2MB:
            self.pref_psa_2mb.on_prefetch_useful(block)

    def on_evicted_unused(self, block: int, issuer: int) -> None:
        if issuer == ISSUER_PSA:
            self.pref_psa.on_prefetch_evicted_unused(block)
        elif issuer == ISSUER_PSA_2MB:
            self.pref_psa_2mb.on_prefetch_evicted_unused(block)

    def on_demand_miss(self, block: int) -> None:
        self.pref_psa.on_demand_miss(block)
        self.pref_psa_2mb.on_demand_miss(block)

    # ------------------------------------------------------------------
    def selection_fractions(self) -> tuple:
        """(fraction follower accesses to PSA, to PSA-2MB) — diagnostics."""
        total = (self.selector.follower_selects_psa
                 + self.selector.follower_selects_psa_2mb)
        if not total:
            return 0.0, 0.0
        return (self.selector.follower_selects_psa / total,
                self.selector.follower_selects_psa_2mb / total)

    def storage_bits(self) -> int:
        return (self.pref_psa.storage_bits()
                + self.pref_psa_2mb.storage_bits()
                + self.config.csel_bits)

    def reset_stats(self) -> None:
        """Zero statistics at the measurement boundary (Csel survives)."""
        self.stats_psa = BoundaryStats()
        self.stats_psa_2mb = BoundaryStats()

    def state_dict(self) -> dict:
        return {"pref_psa": self.pref_psa.state_dict(),
                "pref_psa_2mb": self.pref_psa_2mb.state_dict(),
                "selector": self.selector.state_dict(),
                "stats_psa": self.stats_psa.state_dict(),
                "stats_psa_2mb": self.stats_psa_2mb.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        self.pref_psa.load_state_dict(state["pref_psa"])
        self.pref_psa_2mb.load_state_dict(state["pref_psa_2mb"])
        self.selector.load_state_dict(state["selector"])
        self.stats_psa.load_state_dict(state["stats_psa"])
        self.stats_psa_2mb.load_state_dict(state["stats_psa_2mb"])
