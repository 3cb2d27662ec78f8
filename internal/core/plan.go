package core

import (
	"sort"
	"strings"
	"sync"

	"formext/internal/geom"
	"formext/internal/grammar"
)

// plan is the per-grammar compiled evaluation form: the 2P schedule plus
// everything the engine's inner loops would otherwise recompute per parse —
// symbols interned to dense IDs, productions resolved to component symbol
// IDs with compiled constraints, preferences resolved to winner/loser
// symbol IDs with compiled condition/criterion, per-group production lists,
// and pre-joined group labels for tracing. Like the grammar and schedule it
// derives from, a plan is immutable after construction and shared across
// parsers and goroutines.
type plan struct {
	g     *grammar.Grammar
	sched *Schedule

	// syms/symID intern every grammar symbol (terminals and nonterminals)
	// to a dense ID; bySym tables and fix-point marks index by it.
	syms  []string
	symID map[string]int

	// prods is index-parallel to g.Prods; prefs to g.Prefs.
	prods []prodPlan
	prefs []prefPlan

	// groupProds[i] lists (by index into prods, in grammar order) the
	// productions whose head is in schedule group i. globalProds is the
	// same for the single late-pruning fix point: every production.
	groupProds  [][]int
	globalProds []int
	// groupSyms[i] is the deduplicated union of component symbol IDs the
	// productions of group i join over; globalSyms the same for globalProds.
	// Fix-point frontier bookkeeping (marks, snapshots) touches only these —
	// a group typically joins a handful of symbols out of the grammar's
	// dozens, and the snapshot runs once per round per group.
	groupSyms  [][]int
	globalSyms []int
	// groupLabels[i] is strings.Join(sched.Groups[i], " "), precomputed so
	// tracing a parse does not allocate the label per group per call.
	groupLabels []string

	// enforceAfter[i] lists (by index into prefs) the preferences enforced
	// after group i; prefsByPriority is the late-pruning enforcement order.
	enforceAfter    [][]int
	prefsByPriority []int

	// maxArity is the largest production component count, sizing the
	// engine's join scratch.
	maxArity int
}

// planCache memoizes the compiled plan per grammar, keyed by the *Grammar
// pointer. Grammars are immutable after construction (see grammar.Grammar),
// so a plan computed once is valid for the grammar's lifetime; the cache
// makes NewParser on a shared grammar — the serving path's default —
// allocation-light.
var planCache sync.Map // *grammar.Grammar → *plan

// planFor returns the (possibly cached) compiled plan of g.
func planFor(g *grammar.Grammar) (*plan, error) {
	if p, ok := planCache.Load(g); ok {
		return p.(*plan), nil
	}
	p, err := buildPlan(g)
	if err != nil {
		return nil, err
	}
	actual, _ := planCache.LoadOrStore(g, p)
	return actual.(*plan), nil
}

func buildPlan(g *grammar.Grammar) (*plan, error) {
	sched, err := BuildSchedule(g)
	if err != nil {
		return nil, err
	}
	cg := grammar.Compile(g)

	pl := &plan{g: g, sched: sched}
	pl.syms = g.Symbols()
	pl.symID = make(map[string]int, len(pl.syms))
	for i, s := range pl.syms {
		pl.symID[s] = i
	}

	pl.prods = make([]prodPlan, len(g.Prods))
	for i, p := range g.Prods {
		pp := &pl.prods[i]
		pp.p = p
		pp.headID = pl.symID[p.Head]
		pp.compSyms = make([]int, len(p.Components))
		for j, c := range p.Components {
			pp.compSyms[j] = pl.symID[c.Sym]
		}
		pp.constraint = cg.Prods[i].Constraint
		pp.conj = cg.Prods[i].Conjuncts
		if pp.conj != nil {
			pp.order = tierOrder(pp.conj, len(p.Components))
		}
		pp.win = joinWindows(cg.Prods[i].Adjacent, len(p.Components))
		if len(p.Components) > pl.maxArity {
			pl.maxArity = len(p.Components)
		}
	}

	prefIdx := make(map[*grammar.Preference]int, len(g.Prefs))
	pl.prefs = make([]prefPlan, len(g.Prefs))
	for i, r := range g.Prefs {
		pl.prefs[i] = prefPlan{
			p:        r,
			winnerID: pl.symID[r.Winner],
			loserID:  pl.symID[r.Loser],
			cond:     cg.Prefs[i].Cond,
			win:      cg.Prefs[i].Win,
		}
		prefIdx[r] = i
	}

	pl.groupProds = make([][]int, len(sched.Groups))
	pl.groupLabels = make([]string, len(sched.Groups))
	for gi, group := range sched.Groups {
		inGroup := map[string]bool{}
		for _, s := range group {
			inGroup[s] = true
		}
		for i, p := range g.Prods {
			if inGroup[p.Head] {
				pl.groupProds[gi] = append(pl.groupProds[gi], i)
			}
		}
		pl.groupLabels[gi] = strings.Join(group, " ")
	}
	pl.globalProds = make([]int, len(g.Prods))
	for i := range g.Prods {
		pl.globalProds[i] = i
	}
	pl.groupSyms = make([][]int, len(pl.groupProds))
	for gi, prods := range pl.groupProds {
		pl.groupSyms[gi] = pl.compSymsOf(prods)
	}
	pl.globalSyms = pl.compSymsOf(pl.globalProds)

	pl.enforceAfter = make([][]int, len(sched.EnforceAfter))
	for gi, prefs := range sched.EnforceAfter {
		for _, r := range prefs {
			pl.enforceAfter[gi] = append(pl.enforceAfter[gi], prefIdx[r])
		}
	}
	for _, r := range ByPriority(g.Prefs) {
		pl.prefsByPriority = append(pl.prefsByPriority, prefIdx[r])
	}
	return pl, nil
}

// compSymsOf returns the deduplicated component symbol IDs of the given
// productions, in first-appearance order.
func (pl *plan) compSymsOf(prods []int) []int {
	seen := make([]bool, len(pl.syms))
	var out []int
	for _, pi := range prods {
		for _, sid := range pl.prods[pi].compSyms {
			if !seen[sid] {
				seen[sid] = true
				out = append(out, sid)
			}
		}
	}
	return out
}

// prodPlan is one production in compiled evaluation form.
type prodPlan struct {
	p          *grammar.Production
	headID     int
	compSyms   []int
	constraint *grammar.CompiledExpr

	// Tiered conjunct evaluation. conj is the constraint's top-level
	// ∧-chain in grammar order (nil when it has fewer than two factors —
	// the engine then evaluates constraint whole); order is the evaluation
	// schedule over conj (zero when conj is nil).
	conj  []grammar.CompiledConjunct
	order conjOrder

	// win[s] is join slot s's geometric window (nil when no slot has one).
	win []joinWin
}

// joinWin narrows join slot s to the candidates an adjacency factor can
// accept. The factor is a grammar.Adjacency linking slot s to the earlier
// slot anchor: along ax it requires after.Lead - before.Trail to lie in
// [-AlignTol, MaxHGap|MaxVGap] (geom.Thresholds.AfterWindow). The
// join keys each slot-s candidate on Lead (after) or Trail (before) and
// visits only keys inside the window around the anchor's rectangle. The
// window is a conservative prefilter: the factor itself still runs on
// every visited assignment and alone decides the derivation, and a
// candidate outside the window falsifies the factor and hence the whole
// conjunction, so skipping it changes no instance.
type joinWin struct {
	on     bool
	after  bool  // the slot-s candidate is the relation's after argument
	anchor uint8 // earlier slot whose instance fixes the window
	ax     geom.Axis
}

// joinWindows derives a production's per-slot join windows from its
// adjacency factors: each factor windows the later of its two slots,
// anchored on the earlier one, and the first factor of each slot wins.
func joinWindows(adj []grammar.Adjacency, arity int) []joinWin {
	if len(adj) == 0 {
		return nil
	}
	win := make([]joinWin, arity)
	for _, a := range adj {
		s := max(a.Before, a.After)
		if !win[s].on {
			win[s] = joinWin{on: true, after: s == a.After, anchor: uint8(min(a.Before, a.After)), ax: a.Axis}
		}
	}
	return win
}

// conjOrder is one production's conjunct evaluation schedule: ord lists the
// factor indices tier-major — grouped by the join slot at which each factor
// becomes fully bound (CompiledConjunct.MaxSlot), cheapest static Cost
// first within a tier, grammar order on ties — and tier[s]..tier[s+1]
// bounds slot s's segment of ord (len(tier) is the production arity plus
// one). The engine evaluates segment s the moment join slot s is filled,
// so a rejecting factor prunes every deeper candidate combination instead
// of one complete assignment.
type conjOrder struct {
	ord  []uint8
	tier []uint8
}

// tierOrder computes the conjunct schedule of a production with the given
// ∧-factors and arity.
func tierOrder(conj []grammar.CompiledConjunct, arity int) conjOrder {
	ord := make([]uint8, len(conj))
	for ci := range ord {
		ord[ci] = uint8(ci)
	}
	sort.SliceStable(ord, func(a, b int) bool {
		ca, cb := &conj[ord[a]], &conj[ord[b]]
		if ca.MaxSlot != cb.MaxSlot {
			return ca.MaxSlot < cb.MaxSlot
		}
		return ca.Cost < cb.Cost
	})
	// tier[s] = first index of ord whose factor has MaxSlot >= s, so
	// ord[tier[s]:tier[s+1]] is exactly slot s's segment.
	tier := make([]uint8, arity+1)
	idx := 0
	for s := range tier {
		for idx < len(ord) && conj[ord[idx]].MaxSlot < s {
			idx++
		}
		tier[s] = uint8(idx)
	}
	return conjOrder{ord: ord, tier: tier}
}

// prefPlan is one preference in compiled evaluation form.
type prefPlan struct {
	p        *grammar.Preference
	winnerID int
	loserID  int
	cond     *grammar.CompiledExpr
	win      *grammar.CompiledExpr
}
