package core

import (
	"fmt"
	"strings"

	"fvcache/internal/fvc"
	"fvcache/internal/trace"
)

// The invariant audit is the runtime proof of the paper's correctness
// story: Section 3's protocol rests on the DMC/FVC exclusivity
// contract (a line readable from both structures could serve stale
// values) and on every non-escape FVC code decoding to the word's
// architectural value. AuditInvariants scans the whole hierarchy for
// violations; internal/faultinject demonstrates that every class of
// injected corruption is caught by this audit or by the VerifyValues
// asserts.

// InvariantViolation is one failed invariant check.
type InvariantViolation struct {
	// Invariant names the violated contract.
	Invariant string
	// Detail locates the violation.
	Detail string
}

// String renders the violation.
func (v InvariantViolation) String() string { return v.Invariant + ": " + v.Detail }

// AuditError aggregates the violations found by one audit scan.
type AuditError struct {
	Violations []InvariantViolation
}

// Error summarizes the violations (all of them; an audit failure is a
// stop-the-world event, not a log line to truncate).
func (e *AuditError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "core: invariant audit found %d violation(s)", len(e.Violations))
	for _, v := range e.Violations {
		sb.WriteString("\n  ")
		sb.WriteString(v.String())
	}
	return sb.String()
}

// VerificationError is the typed assert thrown (via panic) by the
// VerifyValues checks on the access path: a decoded or event value
// disagreeing with the architectural replica. sim.Measure and the
// harness recover it into an ordinary error.
type VerificationError struct {
	// Where names the failing check ("fvc-decode" or "load-event").
	Where string
	// Addr is the word address in disagreement.
	Addr uint32
	// Want is the expected (replica or event) value, Got the observed.
	Want, Got uint32
}

// Error formats the disagreement.
func (e *VerificationError) Error() string {
	return fmt.Sprintf("core: value verification failed (%s): %#x holds %#x, want %#x",
		e.Where, e.Addr, e.Got, e.Want)
}

// AuditInvariants scans the hierarchy for violations of the contracts
// the simulation's correctness rests on:
//
//  1. DMC/FVC exclusivity (paper Section 3): no line may be readable
//     from both the main cache and the FVC.
//  2. FVC code validity: every non-escape code must name an assigned
//     frequent-value table slot.
//  3. FVC value consistency: every non-escape code must decode to the
//     word's current architectural value (the replica reflects each
//     store as it happens, so frequent codes may never go stale).
//  4. Stats conservation: hits + misses == loads + stores, and the FVC
//     occupancy gauges stay within geometric bounds.
//
// It returns nil when every invariant holds, or an *AuditError listing
// every violation. The scan is read-only and costs O(entries), so it
// can run periodically during measurement (sim.MeasureOptions.AuditEvery).
func (s *System) AuditInvariants() error {
	var violations []InvariantViolation
	add := func(invariant, format string, args ...any) {
		violations = append(violations, InvariantViolation{
			Invariant: invariant,
			Detail:    fmt.Sprintf(format, args...),
		})
	}

	// 1-3: FVC scans.
	if s.fv != nil {
		tbl := s.fv.Table()
		escape := s.fv.Escape()
		lineBytes := uint32(s.cfg.Main.LineBytes)
		s.fv.VisitValid(func(e fvc.Entry) {
			base := e.Tag * lineBytes
			if s.main.Lookup(base) {
				add("dmc-fvc-exclusivity",
					"line %#x (FVC tag %#x) readable from both the main cache and the FVC", base, e.Tag)
			}
			for i, code := range e.Codes {
				if code == escape {
					continue
				}
				addr := base + uint32(i)*trace.WordBytes
				if int(code) >= tbl.Len() {
					add("fvc-code-validity",
						"entry %#x word %d holds unassigned code %d (table holds %d values)",
						e.Tag, i, code, tbl.Len())
					continue
				}
				if want, got := s.mem.LoadWord(addr), tbl.Decode(code); got != want {
					add("fvc-value-consistency",
						"entry %#x word %d (addr %#x) decodes to %#x but replica holds %#x",
						e.Tag, i, addr, got, want)
				}
			}
		})
		if n, max := s.fv.ValidEntries(), s.fv.Params().Entries; n > max {
			add("fvc-occupancy", "%d valid entries exceed geometry capacity %d", n, max)
		}
	}

	// 4: stats conservation.
	st := s.stats
	if st.Hits()+st.Misses != st.Accesses() {
		add("stats-conservation",
			"hits (%d) + misses (%d) != accesses (%d = %d loads + %d stores)",
			st.Hits(), st.Misses, st.Accesses(), st.Loads, st.Stores)
	}
	if s.fv == nil && st.FVCHits != 0 {
		add("stats-conservation", "%d FVC hits recorded without an FVC", st.FVCHits)
	}
	if s.vc == nil && st.VictimHits != 0 {
		add("stats-conservation", "%d victim hits recorded without a victim cache", st.VictimHits)
	}

	if len(violations) > 0 {
		return &AuditError{Violations: violations}
	}
	return nil
}

// CorruptReplicaWord overwrites the architectural replica word at
// addr, bypassing the cache protocol. Fault-injection support
// (internal/faultinject): it models a corrupted data word in the
// cached copy of addr's line, which the VerifyValues asserts or the
// invariant audit must subsequently detect. Never called on the
// simulation path.
func (s *System) CorruptReplicaWord(addr, v uint32) {
	s.mem.StoreWord(addr, v)
	if s.ranks != nil {
		s.ranks.store(addr, v)
	}
}
