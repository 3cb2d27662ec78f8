// Query parsing: the unified-interface query language of the MetaQuerier
// front end. A query is a bracketed conjunction of constraints over the
// unified attributes of a domain, e.g.
//
//	[destination=Paris; date<2026-09-01; passengers>=2]
//
// Each constraint is attribute, comparison operator, value. The attribute
// is matched against the unified interface by label similarity (exact
// spelling is not required — "depart date" finds "departure date"); the
// operator set is the mediator's, not any one source's: a source that
// cannot express an operator natively is still queried, and the engine
// enforces the operator on the returned records instead.
package metaquery

import (
	"fmt"
	"strings"
)

// Op is a comparison operator of the unified query language.
type Op string

const (
	OpEq Op = "="
	OpLt Op = "<"
	OpLe Op = "<="
	OpGt Op = ">"
	OpGe Op = ">="
)

// ops in scan order: two-byte operators first, so "<=" is not read as "<".
var ops = []Op{OpLe, OpGe, OpEq, OpLt, OpGt}

// Constraint is one parsed term of a unified query: attribute, operator,
// value, all as written by the user (attribute routing and value
// translation happen later, against a concrete domain view).
type Constraint struct {
	Attr  string `json:"attr"`
	Op    Op     `json:"op"`
	Value string `json:"value"`
}

// String renders the constraint in query syntax. A value starting with
// "=" after "<" or ">" is set off by a space: written flush, "price> =10"
// would reparse as "price>=10", a different operator and value.
func (c Constraint) String() string {
	if (c.Op == OpLt || c.Op == OpGt) && strings.HasPrefix(c.Value, "=") {
		return c.Attr + string(c.Op) + " " + c.Value
	}
	return c.Attr + string(c.Op) + c.Value
}

// ParseQuery parses the bracketed constraint list. The surrounding
// brackets are optional; terms are separated by ";". An empty query or a
// term without an operator is an error — malformed queries are the one
// thing the engine refuses rather than degrades, because there is nothing
// meaningful to be best-effort about.
func ParseQuery(s string) ([]Constraint, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	var out []Constraint
	for _, term := range strings.Split(s, ";") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		c, err := parseTerm(term)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("metaquery: empty query")
	}
	return out, nil
}

// parseTerm splits one "attr op value" term at the first operator
// occurrence outside the attribute.
func parseTerm(term string) (Constraint, error) {
	// Find the earliest operator position; among operators starting at the
	// same position, prefer the longest (<= over <).
	best, bestPos := Op(""), len(term)
	for _, op := range ops {
		if i := strings.Index(term, string(op)); i >= 0 && (i < bestPos || (i == bestPos && len(op) > len(best))) {
			best, bestPos = op, i
		}
	}
	if best == "" {
		return Constraint{}, fmt.Errorf("metaquery: term %q has no operator (want one of = < <= > >=)", term)
	}
	attr := strings.TrimSpace(term[:bestPos])
	val := strings.TrimSpace(term[bestPos+len(best):])
	if attr == "" {
		return Constraint{}, fmt.Errorf("metaquery: term %q has no attribute", term)
	}
	if val == "" {
		return Constraint{}, fmt.Errorf("metaquery: term %q has no value", term)
	}
	return Constraint{Attr: attr, Op: best, Value: val}, nil
}

// FormatQuery renders constraints back into the bracketed syntax.
func FormatQuery(cons []Constraint) string {
	parts := make([]string, len(cons))
	for i, c := range cons {
		parts[i] = c.String()
	}
	return "[" + strings.Join(parts, "; ") + "]"
}
