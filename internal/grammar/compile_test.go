package grammar

import (
	"math/rand"
	"reflect"
	"testing"

	"formext/internal/geom"
	"formext/internal/token"
)

// instancePool builds a diverse pool of terminal and small nonterminal
// instances for differential evaluation: varied text shapes, widget types,
// selection lists, positions and covers, so constraints of every builtin
// family exercise both true and false branches.
func instancePool(tb testing.TB) []*Instance {
	tb.Helper()
	const u = 32
	mk := func(id int, t *token.Token) *Instance {
		t.ID = id
		return NewTerminal(t, u)
	}
	pool := []*Instance{
		mk(0, &token.Token{Type: token.Text, SVal: "Author", Pos: geom.R(10, 52, 10, 24)}),
		mk(1, &token.Token{Type: token.Text, SVal: "Exact name", Pos: geom.R(10, 80, 30, 44)}),
		mk(2, &token.Token{Type: token.Text, SVal: "Departure date:", Pos: geom.R(100, 190, 10, 24)}),
		mk(3, &token.Token{Type: token.Text, SVal: "Welcome to our bookstore search page today", Pos: geom.R(0, 400, 0, 8)}),
		mk(4, &token.Token{Type: token.Text, SVal: "less than", Pos: geom.R(60, 110, 52, 66)}),
		mk(5, &token.Token{Type: token.Textbox, Name: "q", Pos: geom.R(60, 270, 11, 33)}),
		mk(6, &token.Token{Type: token.Textbox, Name: "q2", Pos: geom.R(60, 270, 40, 60), ElemID: "field-q2"}),
		mk(7, &token.Token{Type: token.RadioButton, Name: "grp", Checked: true, Pos: geom.R(12, 20, 52, 60)}),
		mk(8, &token.Token{Type: token.RadioButton, Name: "grp", Pos: geom.R(42, 50, 52, 60)}),
		mk(9, &token.Token{Type: token.SelectList, Name: "month", Pos: geom.R(200, 260, 10, 30),
			Options: []string{"January", "February", "March", "April"}}),
		mk(10, &token.Token{Type: token.SelectList, Name: "op", Pos: geom.R(200, 260, 40, 60),
			Options: []string{"contains", "exact phrase", "starts with"}}),
		mk(11, &token.Token{Type: token.SelectList, Name: "year", Pos: geom.R(200, 260, 70, 90),
			Options: []string{"2001", "2002", "2003", "2004", "2005"}}),
		mk(12, &token.Token{Type: token.Text, SVal: "Title:", ForID: "field-q2", Pos: geom.R(10, 40, 46, 58)}),
		mk(13, &token.Token{Type: token.Checkbox, Name: "used", Pos: geom.R(300, 308, 10, 18)}),
	}
	// A few nonterminals so subtree-walking builtins see depth.
	g := MustParseDSL(`terminals text, textbox, radiobutton, selectlist, checkbox; start P;
		prod P -> a:text b:textbox ;
		prod Q -> r:radiobutton t:text ;`)
	pa := Build(g.Prods[0], []*Instance{pool[0], pool[5]})
	pa.ID = 100
	pb := Build(g.Prods[1], []*Instance{pool[7], pool[1]})
	pb.ID = 101
	pc := Build(g.Prods[0], []*Instance{pool[12], pool[6]})
	pc.ID = 102
	return append(pool, pa, pb, pc)
}

// TestCompiledMatchesInterpretedOnDefault runs every production constraint
// and preference condition/criterion of the default grammar over many
// deterministic instance assignments, comparing compiled against
// interpreted evaluation bit for bit.
func TestCompiledMatchesInterpretedOnDefault(t *testing.T) {
	g := Default()
	cg := Compile(g)
	pool := instancePool(t)
	fr := NewFrame(geom.DefaultThresholds)
	ctx := &EvalCtx{Bind: map[string]*Instance{}, Th: geom.DefaultThresholds}

	rounds := 7
	for pi, p := range g.Prods {
		if p.Constraint == nil {
			continue
		}
		slots := make([]*Instance, len(p.Components))
		for r := 0; r < rounds; r++ {
			for bi := range ctx.Bind {
				delete(ctx.Bind, bi)
			}
			for ci, c := range p.Components {
				in := pool[(pi*7+r*3+ci)%len(pool)]
				slots[ci] = in
				ctx.Bind[c.Var] = in
			}
			fr.Bind(slots)
			want := EvalBool(p.Constraint, ctx)
			got := cg.Prods[pi].Constraint.EvalBool(fr)
			if got != want {
				t.Errorf("prod %s round %d: compiled=%v interpreted=%v (%s)",
					p.Name, r, got, want, p.Constraint)
			}
		}
	}

	pair := make([]*Instance, 2)
	for ri, r := range g.Prefs {
		for round := 0; round < rounds*3; round++ {
			w := pool[(ri*5+round)%len(pool)]
			l := pool[(ri*3+round*2+1)%len(pool)]
			pair[0], pair[1] = w, l
			fr.Bind(pair)
			for bi := range ctx.Bind {
				delete(ctx.Bind, bi)
			}
			ctx.Bind[r.WinnerVar] = w
			ctx.Bind[r.LoserVar] = l
			if r.Cond != nil {
				want := EvalBool(r.Cond, ctx)
				if got := cg.Prefs[ri].Cond.EvalBool(fr); got != want {
					t.Errorf("pref %s cond round %d: compiled=%v interpreted=%v",
						r.Name, round, got, want)
				}
			}
			if r.Win != nil {
				want := EvalBool(r.Win, ctx)
				if got := cg.Prefs[ri].Win.EvalBool(fr); got != want {
					t.Errorf("pref %s win round %d: compiled=%v interpreted=%v",
						r.Name, round, got, want)
				}
			}
		}
	}
}

type bogusExpr struct{}

func (bogusExpr) Eval(*EvalCtx) (Value, error) { return Value{}, errCannotEv }
func (bogusExpr) Vars() []string               { return nil }
func (bogusExpr) String() string               { return "<bogus>" }

// TestCompileTotality checks that expressions the interpreter can only fail
// on at evaluation time — unbound variables, unknown builtins, foreign AST
// nodes — compile to nodes that fail the same way (error, hence false).
func TestCompileTotality(t *testing.T) {
	slot := map[string]int{"a": 0}
	fr := NewFrame(geom.DefaultThresholds)
	fr.Bind([]*Instance{mkText(0, "x", geom.R(0, 1, 0, 1), 2)})

	cases := []Expr{
		&VarExpr{Name: "nope"},
		&CallExpr{Name: "nosuchbuiltin", Args: []Expr{&VarExpr{Name: "a"}}},
		&CallExpr{Name: "textis", Args: []Expr{&VarExpr{Name: "nope"}, &StrLit{V: "x"}}},
		&AndExpr{L: &BoolLit{V: true}, R: &VarExpr{Name: "nope"}},
		bogusExpr{},
		&NotExpr{X: &NumLit{V: 1}},
		&CmpExpr{Op: "<", L: &StrLit{V: "a"}, R: &StrLit{V: "b"}},
	}
	for _, e := range cases {
		c := CompileExpr(e, slot)
		if c == nil {
			t.Fatalf("%s compiled to nil", e)
		}
		if _, err := c.Eval(fr); err == nil {
			t.Errorf("%s: compiled Eval should error", e)
		}
		if c.EvalBool(fr) {
			t.Errorf("%s: compiled EvalBool should be false", e)
		}
	}
	if CompileExpr(nil, slot) != nil {
		t.Error("nil expression must compile to nil")
	}
	var nilExpr *CompiledExpr
	if !nilExpr.EvalBool(fr) {
		t.Error("nil compiled expression must hold")
	}
}

// TestCompiledTextMatch pins the textis/contains specialization against the
// interpreted builtin over normalization-sensitive inputs.
func TestCompiledTextMatch(t *testing.T) {
	u := 4
	cases := []struct {
		expr string
		sval string
		want bool
	}{
		{`textis(a, "author")`, "  Author: ", true},
		{`textis(a, "Last  Name")`, "last name", true},
		{`textis(a, "author", "title")`, "Title", true},
		{`textis(a, "author")`, "authors", false},
		{`contains(a, "name")`, "Exact Name:", true},
		{`contains(a, "name")`, "price", false},
	}
	for _, c := range cases {
		src := `terminals text, textbox; start X; prod X -> a:text b:textbox : ` + c.expr + `;`
		g := MustParseDSL(src)
		cg := Compile(g)
		a := mkText(0, c.sval, geom.R(0, 10, 0, 10), u)
		b := mkWidget(1, token.Textbox, "w", geom.R(20, 30, 0, 10), u)
		want := EvalBool(g.Prods[0].Constraint, ctxWith(map[string]*Instance{"a": a, "b": b}))
		if want != c.want {
			t.Fatalf("%s over %q: interpreted = %v, fixture wants %v", c.expr, c.sval, want, c.want)
		}
		fr := NewFrame(geom.DefaultThresholds)
		fr.Bind([]*Instance{a, b})
		if got := cg.Prods[0].Constraint.EvalBool(fr); got != want {
			t.Errorf("%s over %q: compiled = %v, interpreted = %v", c.expr, c.sval, got, want)
		}
	}
	// A nil instance in the slot errors on both paths.
	g := MustParseDSL(`terminals text, textbox; start X; prod X -> a:text b:textbox : textis(a, "x");`)
	fr := NewFrame(geom.DefaultThresholds)
	fr.Bind([]*Instance{nil, nil})
	if Compile(g).Prods[0].Constraint.EvalBool(fr) {
		t.Error("textis over nil slot must be false")
	}
}

// TestCompiledPrefSharedVar pins the slot-collision rule: when a preference
// names winner and loser identically, both the interpreter (last Bind write)
// and the compiler (slot overwrite) must resolve the variable to the loser.
func TestCompiledPrefSharedVar(t *testing.T) {
	u := 4
	win := mkText(0, "winner", geom.R(0, 10, 0, 10), u)
	lose := mkText(1, "loser", geom.R(20, 30, 0, 10), u)
	pref := &Preference{
		Name: "collide", WinnerVar: "x", Winner: "A", LoserVar: "x", Loser: "A",
		Cond: &CallExpr{Name: "textis", Args: []Expr{&VarExpr{Name: "x"}, &StrLit{V: "loser"}}},
	}
	g := &Grammar{Prefs: []*Preference{pref}}
	cg := Compile(g)

	ctx := ctxWith(map[string]*Instance{})
	ctx.Bind[pref.WinnerVar] = win
	ctx.Bind[pref.LoserVar] = lose
	want := EvalBool(pref.Cond, ctx)
	if !want {
		t.Fatal("interpreted shared-var cond should see the loser")
	}
	fr := NewFrame(geom.DefaultThresholds)
	fr.Bind([]*Instance{win, lose})
	if got := cg.Prefs[0].Cond.EvalBool(fr); got != want {
		t.Errorf("shared-var cond: compiled=%v interpreted=%v", got, want)
	}
}

// TestCompiledNestedCalls checks the frame's argument-stack discipline with
// calls nested inside call arguments.
func TestCompiledNestedCalls(t *testing.T) {
	u := 4
	a := mkText(0, "a", geom.R(0, 10, 0, 10), u)
	b := mkWidget(1, token.Textbox, "w", geom.R(14, 24, 0, 10), u)
	src := `terminals text, textbox; start X;
		prod X -> a:text b:textbox : near(a, b, hgap(a, b) + 0) || near(a, b, 100);`
	// The DSL has no arithmetic; build the nested call directly instead.
	_ = src
	e := &CallExpr{Name: "near", Args: []Expr{
		&VarExpr{Name: "a"},
		&VarExpr{Name: "b"},
		&CallExpr{Name: "hgap", Args: []Expr{&VarExpr{Name: "a"}, &VarExpr{Name: "b"}}},
	}}
	want := EvalBool(e, ctxWith(map[string]*Instance{"a": a, "b": b}))
	c := CompileExpr(e, map[string]int{"a": 0, "b": 1})
	fr := NewFrame(geom.DefaultThresholds)
	fr.Bind([]*Instance{a, b})
	if got := c.EvalBool(fr); got != want {
		t.Errorf("nested call: compiled=%v interpreted=%v", got, want)
	}
	if len(fr.args) != 0 {
		t.Errorf("argument stack not unwound: %d values left", len(fr.args))
	}
	// Repeated evaluation must not grow the stack or allocate.
	allocs := testing.AllocsPerRun(200, func() {
		c.EvalBool(fr)
	})
	if allocs != 0 {
		t.Errorf("compiled nested call allocates %.1f times per eval", allocs)
	}
}

// TestCompiledDefaultZeroAlloc asserts the whole default grammar's compiled
// constraints evaluate without allocating once instance text is memoized.
func TestCompiledDefaultZeroAlloc(t *testing.T) {
	g := Default()
	cg := Compile(g)
	pool := instancePool(t)
	fr := NewFrame(geom.DefaultThresholds)
	// Warm the per-instance text caches.
	for _, in := range pool {
		in.NormText()
	}
	slots := make([]*Instance, 8)
	allocs := testing.AllocsPerRun(10, func() {
		for pi, p := range g.Prods {
			c := cg.Prods[pi].Constraint
			if c == nil {
				continue
			}
			for r := 0; r < 3; r++ {
				for ci := range p.Components {
					slots[ci] = pool[(pi+r+ci)%len(pool)]
				}
				fr.Bind(slots[:len(p.Components)])
				c.EvalBool(fr)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("compiled default-grammar evaluation allocates %.1f times per sweep", allocs)
	}
}

// TestAdjacenciesMatchBuiltins ties the adjacencies table to the builtins
// it describes: whenever left, right, above or below holds on a pair of
// rectangles, the normalized after argument's leading edge lies in the
// AfterWindow of the before argument. The parser's join windows skip every
// pair outside that window, so a table entry that disagreed with its
// builtin would silently drop derivations.
func TestAdjacenciesMatchBuiltins(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	th := geom.DefaultThresholds
	ctx := &EvalCtx{Th: th}
	coord := func() float64 { return float64(rng.Intn(400)) + rng.Float64() }
	for name, rel := range adjacencies {
		fn := instBool2[name]
		held := 0
		for i := 0; i < 20000; i++ {
			// Rectangles close enough to each other that every relation
			// holds on a good share of the pairs.
			x, y := coord(), coord()
			w, h := 1+rng.Float64()*60, 1+rng.Float64()*30
			a := &Instance{Pos: geom.R(x, x+w, y, y+h)}
			dx, dy := (rng.Float64()-0.5)*200, (rng.Float64()-0.5)*120
			b := &Instance{Pos: geom.R(x+dx, x+dx+1+rng.Float64()*60, y+dy, y+dy+1+rng.Float64()*30)}
			if !fn(ctx, a, b) {
				continue
			}
			held++
			before, after := a, b
			if rel.swap {
				before, after = b, a
			}
			if win := th.AfterWindow(rel.axis, before.Pos); !win.Contains(after.Pos.Lead(rel.axis)) {
				t.Fatalf("%s(%v, %v) holds but the after edge %v is outside %+v",
					name, a.Pos, b.Pos, after.Pos.Lead(rel.axis), win)
			}
		}
		if held < 200 {
			t.Fatalf("%s held on only %d pairs", name, held)
		}
	}
}

// TestCompiledAdjacent checks which constraint factors Compile records as
// adjacency factors, and their normalization.
func TestCompiledAdjacent(t *testing.T) {
	g := MustParseDSL(`
terminals text, textbox;
start S;
prod S -> a:A b:B : right(a, b) && samerow(a, b) && below(b, a) ;
prod A -> t:text : above(t, t) ;
prod B -> a:A x:textbox : left(a, x) || above(a, x) ;
prod C -> a:A x:textbox : left(a, x) ;
`)
	cg := Compile(g)
	want := [][]Adjacency{
		{{Before: 1, After: 0, Axis: geom.Horizontal}, {Before: 0, After: 1, Axis: geom.Vertical}},
		nil, // one slot: no pair to relate
		nil, // a disjunction is no ∧-factor
		{{Before: 0, After: 1, Axis: geom.Horizontal}},
	}
	for i, p := range cg.Prods {
		if !reflect.DeepEqual(p.Adjacent, want[i]) {
			t.Errorf("%s: Adjacent = %+v, want %+v", g.Prods[i], p.Adjacent, want[i])
		}
	}
}
