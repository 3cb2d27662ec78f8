package metaquery

import (
	"reflect"
	"testing"

	"formext/internal/model"
)

func TestParseQuery(t *testing.T) {
	cons, err := ParseQuery("[destination=Paris; date<2026-09-01; passengers>=2]")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := []Constraint{
		{Attr: "destination", Op: OpEq, Value: "Paris"},
		{Attr: "date", Op: OpLt, Value: "2026-09-01"},
		{Attr: "passengers", Op: OpGe, Value: "2"},
	}
	if len(cons) != len(want) {
		t.Fatalf("got %d constraints, want %d", len(cons), len(want))
	}
	for i := range want {
		if cons[i] != want[i] {
			t.Errorf("constraint %d = %+v, want %+v", i, cons[i], want[i])
		}
	}
}

func TestParseQueryBracketsOptional(t *testing.T) {
	a, err := ParseQuery("[author=toni morrison]")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseQuery("author = toni morrison")
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatalf("bracketed %+v != bare %+v", a[0], b[0])
	}
	if a[0].Value != "toni morrison" {
		t.Fatalf("value = %q, want spaces preserved inside, trimmed outside", a[0].Value)
	}
}

func TestParseQueryTwoByteOps(t *testing.T) {
	cons, err := ParseQuery("[price<=100; year>=2005]")
	if err != nil {
		t.Fatal(err)
	}
	if cons[0].Op != OpLe || cons[0].Value != "100" {
		t.Fatalf("got %+v, want <= 100", cons[0])
	}
	if cons[1].Op != OpGe || cons[1].Value != "2005" {
		t.Fatalf("got %+v, want >= 2005", cons[1])
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, q := range []string{"", "[]", "[;;]", "[noop]", "[=v]", "[a=]"} {
		if _, err := ParseQuery(q); err == nil {
			t.Errorf("ParseQuery(%q): want error", q)
		}
	}
}

func TestFormatQueryRoundTrip(t *testing.T) {
	const q = "[destination=Paris; date<2026-09-01]"
	cons, err := ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatQuery(cons); got != q {
		t.Fatalf("FormatQuery = %q, want %q", got, q)
	}
	// A value starting with "=" after "<" or ">" must not fuse with the
	// operator when rendered: "price>=10" is a different query.
	for _, q := range []string{"[price> =10]", "[price< =10]"} {
		cons, err := ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseQuery(FormatQuery(cons))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, cons) {
			t.Errorf("%s: round trip %#v -> %q -> %#v", q, cons, FormatQuery(cons), again)
		}
	}
}

// FuzzQueryRoundTrip: any query ParseQuery accepts must survive
// FormatQuery unchanged, so an answer echoes the query the engine ran.
func FuzzQueryRoundTrip(f *testing.F) {
	for _, s := range []string{
		"[destination=Paris; date<2026-09-01; passengers>=2]",
		"[price> =10]",
		"[price< =10]",
		"price<==5",
		"[[a=1]]",
		"a=<5; b= ; ;c>x",
		"[]",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		cons, err := ParseQuery(q)
		if err != nil {
			return
		}
		out := FormatQuery(cons)
		again, err := ParseQuery(out)
		if err != nil {
			t.Fatalf("%q -> %q: reparse failed: %v", q, out, err)
		}
		if !reflect.DeepEqual(again, cons) {
			t.Fatalf("%q -> %q: %#v reparsed as %#v", q, out, cons, again)
		}
	})
}

func TestMatchValue(t *testing.T) {
	cases := []struct {
		kind model.DomainKind
		rec  string
		op   Op
		q    string
		want bool
	}{
		{model.TextDomain, "Toni Morrison", OpEq, "morrison", true},
		{model.TextDomain, "Toni Morrison", OpEq, "updike", false},
		{model.TextDomain, "Toni Morrison", OpLt, "morrison", false},
		{model.EnumDomain, "Hardcover", OpEq, "hardcover", true},
		{model.EnumDomain, "Hardcover", OpEq, "paperback", false},
		{model.EnumDomain, "3", OpGe, "2", true},
		{model.EnumDomain, "1", OpGe, "2", false},
		{model.BoolDomain, "yes", OpEq, "true", true},
		{model.BoolDomain, "no", OpEq, "yes", false},
		{model.RangeDomain, "137", OpLe, "200", true},
		{model.RangeDomain, "137", OpLt, "137", false},
		{model.RangeDomain, "137", OpEq, "137", true},
		{model.RangeDomain, "$1,500", OpGt, "1000", true},
		{model.DateDomain, "2026-03-15", OpLt, "2026-09-01", true},
		{model.DateDomain, "2026-03-15", OpEq, "March/15/2026", true},
		{model.DateDomain, "2026-03-15", OpGe, "2026-09-01", false},
		{model.DateDomain, "not a date", OpEq, "2026-09-01", false},
	}
	for _, c := range cases {
		if got := MatchValue(c.kind, c.rec, c.op, c.q); got != c.want {
			t.Errorf("MatchValue(%s, %q, %s, %q) = %v, want %v",
				c.kind, c.rec, c.op, c.q, got, c.want)
		}
	}
}

func TestParseDate(t *testing.T) {
	for _, s := range []string{"2026-09-01", "September/1/2026", "sep/1/2026", "9/1/2026"} {
		d, ok := ParseDate(s)
		if !ok {
			t.Errorf("ParseDate(%q) failed", s)
			continue
		}
		if d.Year() != 2026 || int(d.Month()) != 9 || d.Day() != 1 {
			t.Errorf("ParseDate(%q) = %v", s, d)
		}
	}
	for _, s := range []string{"", "someday", "13/45/2026", "2026-13-40"} {
		if _, ok := ParseDate(s); ok {
			t.Errorf("ParseDate(%q) accepted", s)
		}
	}
}

func TestFormatDateParts(t *testing.T) {
	got, ok := FormatDateParts("2026-09-01")
	if !ok || got != "September/1/2026" {
		t.Fatalf("FormatDateParts = %q, %v", got, ok)
	}
	if _, ok := FormatDateParts("garbage"); ok {
		t.Fatal("FormatDateParts accepted garbage")
	}
}

func TestNativeValue(t *testing.T) {
	cases := []struct {
		kind model.DomainKind
		c    Constraint
		want string
		ok   bool
	}{
		{model.RangeDomain, Constraint{Op: OpLe, Value: "100"}, "..100", true},
		{model.RangeDomain, Constraint{Op: OpGe, Value: "50"}, "50..", true},
		{model.RangeDomain, Constraint{Op: OpEq, Value: "75"}, "75..75", true},
		{model.DateDomain, Constraint{Op: OpEq, Value: "2026-09-01"}, "September/1/2026", true},
		{model.DateDomain, Constraint{Op: OpLt, Value: "2026-09-01"}, "", false},
		{model.TextDomain, Constraint{Op: OpEq, Value: "x"}, "x", true},
		{model.TextDomain, Constraint{Op: OpGt, Value: "x"}, "", false},
		{model.EnumDomain, Constraint{Op: OpGe, Value: "2"}, "", false},
	}
	for _, c := range cases {
		got, ok := nativeValue(c.kind, c.c)
		if got != c.want || ok != c.ok {
			t.Errorf("nativeValue(%s, %+v) = %q, %v; want %q, %v",
				c.kind, c.c, got, ok, c.want, c.ok)
		}
	}
}

func TestJoinEndpoint(t *testing.T) {
	cases := [][3]string{
		{"http://h:1/src/books-1", "/search", "http://h:1/src/books-1/search"},
		{"http://h:1/src/books-1/", "search", "http://h:1/src/books-1/search"},
		{"http://h:1", "", "http://h:1"},
		{"http://h:1/base", "http://other/abs", "http://other/abs"},
	}
	for _, c := range cases {
		if got := joinEndpoint(c[0], c[1]); got != c[2] {
			t.Errorf("joinEndpoint(%q, %q) = %q, want %q", c[0], c[1], got, c[2])
		}
	}
}
