"""A multi-tenant, epoch-rotating privacy-budget ledger.

The serving model: a provider promises each data epoch (say, one
rush-hour window of congestion data) at most ``epoch_budget`` of
privacy loss *per product ("tenant")* that releases something from
that epoch's weights; with ``N`` tenants the total loss on the epoch
is at most ``N * epoch_budget`` by basic composition, which the
provider sizes the per-tenant budget for.  When the epoch rotates —
fresh private data replaces the old — the budgets reset, because the
new weight function is a new database.

:class:`BudgetLedger` layers this on :class:`repro.dp.Accountant`:
one accountant per tenant per epoch, all sharing the epoch budget cap
per tenant, with every expenditure recorded as a :class:`LedgerEntry`
for audit.  Like the accountant, the ledger *fails closed*: a spend
that would exceed the remaining epoch budget raises
:class:`~repro.exceptions.BudgetExceededError` before any noise is
drawn, so a refused release leaks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..dp.accountant import Accountant
from ..dp.params import PrivacyParams
from ..exceptions import PrivacyError
from ..telemetry import budget_gauges, get_telemetry

__all__ = ["BudgetLedger", "LedgerEntry"]

DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class LedgerEntry:
    """One audited budget expenditure."""

    epoch: int
    tenant: str
    label: str
    params: PrivacyParams


class BudgetLedger:
    """Tracks per-tenant privacy spending across data epochs.

    Parameters
    ----------
    epoch_budget:
        The guarantee promised per tenant per epoch.  Within one epoch
        a tenant's spends compose basically (Lemma 3.3) and may not
        exceed this; rotation starts every tenant fresh.
    """

    def __init__(self, epoch_budget: PrivacyParams) -> None:
        self._epoch_budget = epoch_budget
        self._epoch = 0
        self._accountants: Dict[str, Accountant] = {}
        self._entries: List[LedgerEntry] = []

    @property
    def epoch_budget(self) -> PrivacyParams:
        """The per-tenant budget of each epoch."""
        return self._epoch_budget

    @property
    def epoch(self) -> int:
        """The current epoch index (0-based)."""
        return self._epoch

    @property
    def tenants(self) -> List[str]:
        """Tenants that have spent in the current epoch."""
        return list(self._accountants)

    def _peek(self, tenant: str) -> Accountant:
        """The tenant's live accountant if it has spent this epoch,
        else a fresh one at full budget that is NOT registered — so
        probes and refused spends never leave a trace."""
        if not tenant:
            raise PrivacyError("tenant name must be non-empty")
        if tenant in self._accountants:
            return self._accountants[tenant]
        return Accountant(self._epoch_budget)

    def can_spend(
        self, params: PrivacyParams, tenant: str = DEFAULT_TENANT
    ) -> bool:
        """Whether ``tenant`` can spend ``params`` this epoch."""
        return self._peek(tenant).can_spend(params)

    def spend(
        self,
        params: PrivacyParams,
        tenant: str = DEFAULT_TENANT,
        label: str = "",
    ) -> LedgerEntry:
        """Record an expenditure against the current epoch.

        Fails closed (raising
        :class:`~repro.exceptions.BudgetExceededError`) if the tenant's
        remaining epoch budget cannot cover it.  A refused spend leaves
        no trace: the tenant is only registered once a spend succeeds.
        """
        accountant = self._peek(tenant)
        accountant.spend(params, label=label)
        self._accountants[tenant] = accountant
        entry = LedgerEntry(
            epoch=self._epoch, tenant=tenant, label=label, params=params
        )
        self._entries.append(entry)
        self._record_spend(tenant, params, label, accountant)
        return entry

    def _record_spend(
        self,
        tenant: str,
        params: PrivacyParams,
        label: str,
        accountant: Accountant,
    ) -> None:
        """Publish the tenant's budget position after a spend.

        The bundle is looked up dynamically
        (:func:`~repro.telemetry.get_telemetry`), so a spend made
        inside a service's build lands in that service's registry —
        and a refused spend (which raises before reaching here)
        publishes nothing, matching the no-trace contract.
        """
        telemetry = get_telemetry()
        spent = accountant.spent
        budget = self._epoch_budget
        position = budget_gauges(
            budget.eps, budget.delta, spent.eps, spent.delta
        )
        telemetry.emit(
            "budget.spend",
            epoch=self._epoch,
            tenant=tenant,
            label=label,
            eps=params.eps,
            delta=params.delta,
            spent_eps=spent.eps,
            spent_delta=spent.delta,
            remaining_eps=position["budget.eps.remaining"],
            remaining_delta=position["budget.delta.remaining"],
            budget_eps=budget.eps,
            budget_delta=budget.delta,
        )
        telemetry.registry.counter("budget.spends", tenant=tenant).inc()
        self._publish(telemetry.registry, tenant, position)

    @staticmethod
    def _publish(registry, tenant: str, position: Dict[str, float]) -> None:
        for name, value in position.items():
            registry.gauge(name, tenant=tenant).set(value)

    def spent(self, tenant: str = DEFAULT_TENANT) -> PrivacyParams:
        """The tenant's cumulative spend this epoch (zero if none).

        The figure audit replays are verified against: the accountant
        accumulates spends left-to-right, so a log replayed in record
        order reconstructs it bit-exactly.
        """
        spent = self._peek(tenant).spent
        if spent is None:
            return PrivacyParams(0.0, 0.0)
        return spent

    def remaining_eps(self, tenant: str = DEFAULT_TENANT) -> float:
        """Epoch eps the tenant has not yet spent."""
        return self._peek(tenant).remaining_eps()

    def remaining_delta(self, tenant: str = DEFAULT_TENANT) -> float:
        """Epoch delta the tenant has not yet spent."""
        return self._peek(tenant).remaining_delta()

    def rotate(self) -> int:
        """Close the current epoch and start the next.

        The private data behind the next epoch is a fresh database, so
        every tenant's accountant resets to the full epoch budget.
        Returns the new epoch index.
        """
        telemetry = get_telemetry()
        budget = self._epoch_budget
        full = budget_gauges(budget.eps, budget.delta, 0.0, 0.0)
        for tenant in self._accountants:
            self._publish(telemetry.registry, tenant, full)
        closed = self._epoch
        closed_tenants = sorted(self._accountants)
        self._epoch += 1
        self._accountants = {}
        telemetry.emit(
            "ledger.rotate",
            epoch=self._epoch,
            closed_epoch=closed,
            tenants=closed_tenants,
            budget_eps=budget.eps,
            budget_delta=budget.delta,
        )
        return self._epoch

    def records(
        self, tenant: str | None = None, epoch: int | None = None
    ) -> List[LedgerEntry]:
        """Audit log of expenditures, optionally filtered."""
        return [
            entry
            for entry in self._entries
            if (tenant is None or entry.tenant == tenant)
            and (epoch is None or entry.epoch == epoch)
        ]

    def __repr__(self) -> str:
        return (
            f"BudgetLedger(epoch_budget={self._epoch_budget}, "
            f"epoch={self._epoch}, spends={len(self._entries)})"
        )
