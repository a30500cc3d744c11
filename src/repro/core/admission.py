"""Path-oriented per-flow admission control (Section 3 of the paper).

The broker holds the QoS state of the whole domain, so a flow's
admissibility is decided by examining **the entire path at once**
instead of hop by hop:

* **Rate-based-only paths** (Section 3.1): the end-to-end delay bound
  (eq. (6)) inverts to a closed-form minimal rate

  ``r_min = (T_on P + (h+1) L) / (D_req - D_tot + T_on)``

  and the feasible range is ``[max(rho, r_min), min(P, C_res)]`` —
  an O(1) test against two cached path aggregates.

* **Mixed rate/delay-based paths** (Section 3.2, Figure 4): the
  admissible region of rate-delay pairs ``<r, d>`` is swept along the
  curve ``d = t - Xi / r`` (the end-to-end constraint (9) taken with
  equality), interval by interval over the distinct existing deadlines
  ``d^1 < ... < d^M``. Within the interval ``(d^{m-1}, d^m]`` every
  constraint is linear in ``r``:

  - end-to-end (eq. 7)     → ``Xi/(t - d^{m-1}) < r <= Xi/(t - d^m)``
  - existing deadline d^k ≥ d (eq. 8 with d = t - Xi/r):
      ``r (d^k - t) + Xi + L <= S^k``
      → upper bound when ``d^k >= t``, lower bound when ``d^k < t``
  - the new flow's own deadline (condition (5) at ``t = d``):
      ``W_i(d) >= L`` at every delay-based hop — linear in ``d`` on
      the open segment, hence a lower bound on ``r``
  - traffic & capacity     → ``rho <= r <= min(P, C_res)``

  The minimal feasible rate over all intervals is returned — the
  *minimum-bandwidth* allocation the paper's Theorem 1 characterizes.
  Every candidate is double-checked against the per-link ledgers
  (the hop-by-hop ground truth), so the path-oriented and local tests
  can never silently disagree.

The module performs the paper's two admission phases: the
*admissibility test* (:meth:`PerFlowAdmission.test`) is side-effect
free; *bookkeeping* (:meth:`PerFlowAdmission.admit`) installs the
reservation into the node/flow MIBs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import StateError
from repro.core.mibs import FlowMIB, FlowRecord, NodeMIB, PathMIB, PathRecord
from repro.traffic.spec import TSpec
from repro.vtrs.delay_bounds import e2e_delay_bound, min_feasible_rate_rate_based
from repro.vtrs.timestamps import SchedulerKind

__all__ = [
    "RejectionReason",
    "AdmissionRequest",
    "AdmissionDecision",
    "PerFlowAdmission",
]

_EPS = 1e-9


class RejectionReason(enum.Enum):
    """Why a service request was rejected."""

    POLICY = "policy"
    NO_PATH = "no-path"
    DELAY_UNACHIEVABLE = "delay-unachievable"
    INSUFFICIENT_BANDWIDTH = "insufficient-bandwidth"
    UNSCHEDULABLE = "unschedulable"
    DUPLICATE = "duplicate-flow"
    #: The broker service shed the request (full queue / blown
    #: deadline) without evaluating it — the caller may retry, unlike
    #: the capacity-based rejections above.
    TRY_AGAIN = "try-again"


@dataclass(frozen=True)
class AdmissionRequest:
    """A new-flow service request, as delivered to the broker.

    :param flow_id: unique flow identifier.
    :param spec: dual-token-bucket traffic profile.
    :param delay_requirement: end-to-end delay requirement ``D_req``.
    """

    flow_id: str
    spec: TSpec
    delay_requirement: float


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of the admissibility test.

    ``rate``/``delay`` are the granted rate-delay parameter pair when
    admitted (``delay`` is 0 on rate-based-only paths).
    """

    admitted: bool
    flow_id: str
    path_id: str = ""
    rate: float = 0.0
    delay: float = 0.0
    reason: Optional[RejectionReason] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.admitted


class PerFlowAdmission:
    """Per-flow guaranteed-service admission control (Section 3).

    :param node_mib: the broker's node/link QoS state base.
    :param flow_mib: the broker's flow information base.
    :param path_mib: the broker's path QoS state base.
    """

    def __init__(self, node_mib: NodeMIB, flow_mib: FlowMIB,
                 path_mib: PathMIB) -> None:
        self.node_mib = node_mib
        self.flow_mib = flow_mib
        self.path_mib = path_mib

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def test(self, request: AdmissionRequest, path: PathRecord
             ) -> AdmissionDecision:
        """Admissibility-test phase: no state is modified."""
        if request.flow_id in self.flow_mib:
            return AdmissionDecision(
                admitted=False,
                flow_id=request.flow_id,
                path_id=path.path_id,
                reason=RejectionReason.DUPLICATE,
                detail=f"flow {request.flow_id!r} is already admitted",
            )
        if path.rate_based_hops == path.hops:
            return self._test_rate_only(request, path)
        return self._test_mixed(request, path)

    def admit(self, request: AdmissionRequest, path: PathRecord,
              *, now: float = 0.0) -> AdmissionDecision:
        """Admissibility test followed by the bookkeeping phase."""
        decision = self.test(request, path)
        if not decision.admitted:
            return decision
        for link in path.links:
            if link.kind is SchedulerKind.DELAY_BASED:
                link.reserve(
                    request.flow_id,
                    decision.rate,
                    deadline=decision.delay,
                    max_packet=request.spec.max_packet,
                )
            else:
                link.reserve(request.flow_id, decision.rate)
        self.flow_mib.add(
            FlowRecord(
                flow_id=request.flow_id,
                spec=request.spec,
                delay_requirement=request.delay_requirement,
                path_id=path.path_id,
                rate=decision.rate,
                delay=decision.delay,
                admitted_at=now,
            )
        )
        return decision

    def admit_batch(
        self,
        requests: Sequence[AdmissionRequest],
        path: PathRecord,
        *,
        now: float = 0.0,
    ) -> List[AdmissionDecision]:
        """Admit a batch of requests on one path with one hoisted scan.

        Decisions are, by construction, **identical** to calling
        :meth:`admit` once per request in order.  On a rate-based-only
        path the minimal feasible rate ``r_min`` of eq. (6) depends
        only on the *static* path profile, so it is computed once for
        a batch of identical ``(spec, D_req)`` requests and each flow
        then needs only the O(1) feasible-range check plus bookkeeping
        — the amortization the service layer's admission batcher
        relies on.  Homogeneous batches on mixed rate/delay paths
        share one Figure-4 scan state across the batch
        (:meth:`_admit_batch_mixed`): each admission dirties only the
        breakpoints at or above its granted deadline, and the next
        request's scan replays just that suffix instead of
        re-partitioning every breakpoint.  Heterogeneous batches fall
        back to the per-request sequential loop.
        """
        if not requests:
            return []
        first = requests[0]
        homogeneous = all(
            r.spec == first.spec
            and r.delay_requirement == first.delay_requirement
            for r in requests[1:]
        )
        if not homogeneous:
            return [self.admit(r, path, now=now) for r in requests]
        if path.rate_based_hops != path.hops:
            return self._admit_batch_mixed(requests, path, now=now)
        spec = first.spec
        r_min = min_feasible_rate_rate_based(
            spec, first.delay_requirement, path.profile()
        )
        decisions: List[AdmissionDecision] = []
        for request in requests:
            if request.flow_id in self.flow_mib:
                decisions.append(AdmissionDecision(
                    admitted=False,
                    flow_id=request.flow_id,
                    path_id=path.path_id,
                    reason=RejectionReason.DUPLICATE,
                    detail=f"flow {request.flow_id!r} is already admitted",
                ))
                continue
            if math.isinf(r_min):
                decisions.append(AdmissionDecision(
                    admitted=False,
                    flow_id=request.flow_id,
                    path_id=path.path_id,
                    reason=RejectionReason.DELAY_UNACHIEVABLE,
                    detail="fixed path latency alone exceeds the requirement",
                ))
                continue
            low = max(spec.rho, r_min)
            high = min(spec.peak, path.residual_bandwidth())
            if low > high * (1 + _EPS) + _EPS:
                reason = (
                    RejectionReason.DELAY_UNACHIEVABLE
                    if r_min > spec.peak * (1 + _EPS)
                    else RejectionReason.INSUFFICIENT_BANDWIDTH
                )
                decisions.append(AdmissionDecision(
                    admitted=False,
                    flow_id=request.flow_id,
                    path_id=path.path_id,
                    reason=reason,
                    detail=(
                        f"feasible range empty: need r in "
                        f"[{low:.1f}, {high:.1f}] b/s"
                    ),
                ))
                continue
            decision = AdmissionDecision(
                admitted=True,
                flow_id=request.flow_id,
                path_id=path.path_id,
                rate=min(low, high),
                delay=0.0,
            )
            for link in path.links:
                link.reserve(request.flow_id, decision.rate)
            self.flow_mib.add(
                FlowRecord(
                    flow_id=request.flow_id,
                    spec=request.spec,
                    delay_requirement=request.delay_requirement,
                    path_id=path.path_id,
                    rate=decision.rate,
                    delay=decision.delay,
                    admitted_at=now,
                )
            )
            decisions.append(decision)
        return decisions

    def _admit_batch_mixed(
        self,
        requests: Sequence[AdmissionRequest],
        path: PathRecord,
        *,
        now: float = 0.0,
    ) -> List[AdmissionDecision]:
        """Homogeneous batch on a mixed path with a shared scan state.

        Decision-identical to calling :meth:`admit` per request: the
        shared state only caches per-breakpoint classifications and
        bounds whose inputs (``spec``, ``D_req``, the breakpoint's
        ``(d^k, S^k)``) are unchanged, so every reused value is the
        value the sequential loop would have recomputed.
        """
        first = requests[0]
        scan_state: dict = {}
        decisions: List[AdmissionDecision] = []
        for request in requests:
            if request.flow_id in self.flow_mib:
                decisions.append(AdmissionDecision(
                    admitted=False,
                    flow_id=request.flow_id,
                    path_id=path.path_id,
                    reason=RejectionReason.DUPLICATE,
                    detail=f"flow {request.flow_id!r} is already admitted",
                ))
                continue
            result = self._find_min_rate_pair(
                first.spec, first.delay_requirement, path,
                scan_state=scan_state,
            )
            if isinstance(result, AdmissionDecision):
                decisions.append(result)
                continue
            rate, delay = result
            decision = AdmissionDecision(
                admitted=True,
                flow_id=request.flow_id,
                path_id=path.path_id,
                rate=rate,
                delay=delay,
            )
            for link in path.links:
                if link.kind is SchedulerKind.DELAY_BASED:
                    link.reserve(
                        request.flow_id,
                        decision.rate,
                        deadline=decision.delay,
                        max_packet=request.spec.max_packet,
                    )
                else:
                    link.reserve(request.flow_id, decision.rate)
            self.flow_mib.add(
                FlowRecord(
                    flow_id=request.flow_id,
                    spec=request.spec,
                    delay_requirement=request.delay_requirement,
                    path_id=path.path_id,
                    rate=decision.rate,
                    delay=decision.delay,
                    admitted_at=now,
                )
            )
            decisions.append(decision)
        return decisions

    def release(self, flow_id: str) -> FlowRecord:
        """Tear down a flow's reservation along its path."""
        record = self.flow_mib.remove(flow_id)
        path = self.path_mib.get(record.path_id)
        for link in path.links:
            link.release(flow_id)
        return record

    # ------------------------------------------------------------------
    # Section 3.1 — rate-based-only path, O(1)
    # ------------------------------------------------------------------

    def _test_rate_only(self, request: AdmissionRequest, path: PathRecord
                        ) -> AdmissionDecision:
        spec = request.spec
        r_min = min_feasible_rate_rate_based(
            spec, request.delay_requirement, path.profile()
        )
        if math.isinf(r_min):
            return AdmissionDecision(
                admitted=False,
                flow_id=request.flow_id,
                path_id=path.path_id,
                reason=RejectionReason.DELAY_UNACHIEVABLE,
                detail="fixed path latency alone exceeds the requirement",
            )
        low = max(spec.rho, r_min)
        high = min(spec.peak, path.residual_bandwidth())
        if low > high * (1 + _EPS) + _EPS:
            reason = (
                RejectionReason.DELAY_UNACHIEVABLE
                if r_min > spec.peak * (1 + _EPS)
                else RejectionReason.INSUFFICIENT_BANDWIDTH
            )
            return AdmissionDecision(
                admitted=False,
                flow_id=request.flow_id,
                path_id=path.path_id,
                reason=reason,
                detail=(
                    f"feasible range empty: need r in "
                    f"[{low:.1f}, {high:.1f}] b/s"
                ),
            )
        return AdmissionDecision(
            admitted=True,
            flow_id=request.flow_id,
            path_id=path.path_id,
            rate=min(low, high),
            delay=0.0,
        )

    # ------------------------------------------------------------------
    # Section 3.2 — mixed rate/delay-based path (Figure 4)
    # ------------------------------------------------------------------

    def _test_mixed(self, request: AdmissionRequest, path: PathRecord
                    ) -> AdmissionDecision:
        spec = request.spec
        result = self._find_min_rate_pair(
            spec, request.delay_requirement, path
        )
        if isinstance(result, AdmissionDecision):
            return result
        rate, delay = result
        return AdmissionDecision(
            admitted=True,
            flow_id=request.flow_id,
            path_id=path.path_id,
            rate=rate,
            delay=delay,
        )

    # Per-breakpoint classification codes for the cached scan state.
    _BP_HI = 0      # d^k > t_nu: contributes a constant upper bound
    _BP_FATAL = 1   # d^k == t_nu with insufficient slack: hard reject
    _BP_NEUTRAL = 2  # d^k == t_nu with enough slack: no constraint
    _BP_BELOW = 3   # d^k < t_nu: contributes an interval lower bound

    def _find_min_rate_pair(
        self, spec: TSpec, delay_requirement: float, path: PathRecord,
        scan_state: Optional[dict] = None,
    ):
        """Figure 4: minimal feasible ``<r, d>`` on a mixed path.

        Returns either the pair or a rejecting
        :class:`AdmissionDecision` (flow id left blank — the caller
        fills it in).

        ``scan_state`` is an opaque dict a batch caller threads through
        consecutive calls with identical ``(spec, D_req)``: it caches
        the per-breakpoint classifications and bound values, and each
        call re-derives only the suffix of breakpoints that changed
        since the previous call (an admission dirties breakpoints at
        or above its granted deadline only).  Every cached value is a
        pure function of unchanged inputs, so decisions are
        bit-identical to the uncached scan.
        """

        def reject(reason: RejectionReason, detail: str) -> AdmissionDecision:
            return AdmissionDecision(
                admitted=False, flow_id="", path_id=path.path_id,
                reason=reason, detail=detail,
            )

        profile = path.profile()
        delay_hops = profile.delay_based_hops
        t_nu = (delay_requirement - profile.d_tot + spec.t_on) / delay_hops
        xi = (
            spec.t_on * spec.peak
            + (profile.rate_based_hops + 1) * spec.max_packet
        ) / delay_hops
        l_max = spec.max_packet

        if t_nu <= 0:
            return reject(
                RejectionReason.DELAY_UNACHIEVABLE,
                "fixed path latency alone exceeds the requirement",
            )
        rate_cap = min(spec.peak, path.residual_bandwidth())
        if rate_cap < spec.rho * (1 - _EPS):
            return reject(
                RejectionReason.INSUFFICIENT_BANDWIDTH,
                f"residual bandwidth {path.residual_bandwidth():.1f} b/s "
                f"below the sustained rate {spec.rho:.1f} b/s",
            )

        breakpoints = path.deadline_breakpoints()  # merged (d^k, S^k)
        path.scan_tests += 1

        # Classify every breakpoint relative to t_nu, reusing the
        # classifications of the unchanged breakpoint prefix from a
        # prior call in the same batch.  Each entry is
        # (code, value): HI → upper bound (S^k - Xi - L)/(d^k - t_nu);
        # FATAL → d^k; BELOW → (d^k, S^k, lower-bound coefficient).
        cls: List[Tuple]
        if (
            scan_state is not None
            and scan_state.get("params") == (spec, delay_requirement)
        ):
            old_bp = scan_state["bp"]
            if old_bp is breakpoints:
                cls = scan_state["cls"]
            else:
                prefix = 0
                limit = min(len(old_bp), len(breakpoints))
                while (
                    prefix < limit
                    and old_bp[prefix] == breakpoints[prefix]
                ):
                    prefix += 1
                cls = scan_state["cls"][:prefix]
                for index in range(prefix, len(breakpoints)):
                    cls.append(self._classify_breakpoint(
                        breakpoints[index], t_nu, xi, l_max
                    ))
        else:
            cls = [
                self._classify_breakpoint(entry, t_nu, xi, l_max)
                for entry in breakpoints
            ]
        if scan_state is not None:
            scan_state["params"] = (spec, delay_requirement)
            scan_state["bp"] = breakpoints
            scan_state["cls"] = cls

        # Upper bounds contributed by breakpoints at or beyond t_nu
        # (constant across intervals): r (d^k - t) + Xi + L <= S^k.
        hi_global = rate_cap
        below: List[Tuple[float, float]] = []  # (d^k, S^k) with d^k < t_nu
        bounds: List[float] = []  # matching (Xi + L - S^k) / (t_nu - d^k)
        for code, value in cls:
            if code == self._BP_BELOW:
                below.append((value[0], value[1]))
                bounds.append(value[2])
            elif code == self._BP_HI:
                hi_global = min(hi_global, value)
            elif code == self._BP_FATAL:
                return reject(
                    RejectionReason.UNSCHEDULABLE,
                    f"residual service at deadline {value:.6f}s cannot "
                    f"absorb the new flow at any rate",
                )
        if hi_global <= 0:
            return reject(
                RejectionReason.UNSCHEDULABLE,
                "a long-deadline reservation leaves no residual service",
            )

        # Suffix maxima of the lower bounds contributed by breakpoints
        # below t_nu: for interval m, breakpoints k >= m bind.
        #   r >= (Xi + L - S^k) / (t - d^k)
        suffix_lb = [0.0] * (len(below) + 1)
        for k in range(len(below) - 1, -1, -1):
            suffix_lb[k] = max(suffix_lb[k + 1], bounds[k])

        delay_links = path.delay_based_links()
        boundaries = [0.0] + [d for d, _ in below]  # d^0 .. d^{m*-1}

        best: Optional[Tuple[float, float]] = None
        for m in range(len(boundaries), 0, -1):
            # suffix_lb is non-increasing in index, so once it alone
            # reaches the best rate no remaining interval can improve
            # on it: a candidate only replaces `best` when its rate is
            # strictly lower, and every remaining lo >= suffix_lb.
            if best is not None and suffix_lb[m - 1] >= best[0]:
                path.scan_early_breaks += 1
                break
            path.scan_intervals += 1
            d_lo = boundaries[m - 1]
            d_hi = below[m - 1][0] if m - 1 < len(below) else t_nu
            lo = max(spec.rho, suffix_lb[m - 1])
            if t_nu - d_lo <= _EPS:
                continue
            lo = max(lo, xi / (t_nu - d_lo))
            if best is not None and lo >= best[0]:
                # Same argument per interval: this candidate's rate
                # (even after the boundary nudge, which only raises
                # it) can never beat the running best.
                continue
            hi = hi_global
            if d_hi < t_nu - _EPS:
                hi = min(hi, xi / (t_nu - d_hi))
            if lo > hi * (1 + _EPS):
                continue
            # Own-deadline constraint W_i(d) >= L at every delay-based
            # hop, linear on the open segment above d_lo.
            lo_own, infeasible = self._own_deadline_bound(
                delay_links, d_lo, t_nu, xi, l_max
            )
            if infeasible:
                continue
            lo = max(lo, lo_own)
            if lo > hi * (1 + _EPS):
                continue
            if best is not None and lo >= best[0]:
                continue
            rate = lo
            delay = max(0.0, t_nu - xi / rate)
            if self._locally_admissible(delay_links, rate, delay, l_max):
                if best is None or rate < best[0]:
                    best = (rate, delay)
            else:
                # Boundary numerics: nudge the candidate marginally up.
                rate = lo * (1 + 1e-12) + 1e-12
                delay = max(0.0, t_nu - xi / rate)
                if rate <= hi * (1 + _EPS) and self._locally_admissible(
                    delay_links, rate, delay, l_max
                ):
                    if best is None or rate < best[0]:
                        best = (rate, delay)

        if best is None:
            return reject(
                RejectionReason.UNSCHEDULABLE,
                "no feasible rate-delay pair on any deadline interval",
            )
        return best

    @classmethod
    def _classify_breakpoint(
        cls, entry: Tuple[float, float], t_nu: float, xi: float, l_max: float
    ) -> Tuple:
        """Classify one merged breakpoint against the scan's ``t_nu``."""
        d_k, s_k = entry
        gap = d_k - t_nu
        if gap > _EPS:
            return (cls._BP_HI, (s_k - xi - l_max) / gap)
        if gap >= -_EPS:  # d^k == t_nu
            if s_k + _EPS < xi + l_max:
                return (cls._BP_FATAL, d_k)
            return (cls._BP_NEUTRAL, None)
        return (cls._BP_BELOW, (d_k, s_k, (xi + l_max - s_k) / (t_nu - d_k)))

    @staticmethod
    def _own_deadline_bound(
        delay_links, d_lo: float, t_nu: float, xi: float, l_max: float
    ) -> Tuple[float, bool]:
        """Lower bound on ``r`` from ``W_i(d) >= L`` with ``d = t - Xi/r``.

        Returns ``(bound, infeasible)``; *infeasible* means no ``d``
        in this segment can satisfy some hop regardless of ``r``.
        """
        bound = 0.0
        for link in delay_links:
            ledger = link.ledger
            assert ledger is not None
            rate_sum, rate_dl_sum, packet_sum = ledger.segment_aggregates(d_lo)
            slope = ledger.capacity - rate_sum
            intercept = rate_dl_sum - packet_sum
            # W_i(d) = slope * d + intercept >= L
            if slope <= _EPS * ledger.capacity:
                if intercept + _EPS < l_max:
                    return 0.0, True
                continue
            d_min = (l_max - intercept) / slope
            if d_min <= d_lo:
                continue
            if d_min >= t_nu - _EPS:
                return 0.0, True
            bound = max(bound, xi / (t_nu - d_min))
        return bound, False

    @staticmethod
    def _locally_admissible(delay_links, rate: float, delay: float,
                            l_max: float) -> bool:
        """Ground-truth check of the candidate at every delay-based hop."""
        return all(
            link.ledger.admissible(rate, delay, l_max) for link in delay_links
        )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def granted_delay_bound(self, flow_id: str) -> float:
        """The analytic e2e delay bound of an admitted flow's reservation."""
        record = self.flow_mib.get(flow_id)
        if record is None:
            raise StateError(f"flow {flow_id!r} is not admitted")
        path = self.path_mib.get(record.path_id)
        return e2e_delay_bound(
            record.spec, record.rate, record.delay, path.profile()
        )
