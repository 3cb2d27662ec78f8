package formext_test

import (
	"context"
	"sync"
	"testing"

	"formext"

	"formext/internal/dataset"
)

func TestPoolExtractMatchesDirect(t *testing.T) {
	pool, err := formext.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := formext.New()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.ExtractHTML(dataset.QamHTML)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.ExtractBytes(context.Background(), []byte(dataset.QamHTML))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Model.Conditions) != len(want.Model.Conditions) {
		t.Fatalf("pool %d conditions vs direct %d",
			len(got.Model.Conditions), len(want.Model.Conditions))
	}
	for i := range want.Model.Conditions {
		if got.Model.Conditions[i].Attribute != want.Model.Conditions[i].Attribute {
			t.Errorf("condition %d differs", i)
		}
	}
}

func TestPoolGetPutReuse(t *testing.T) {
	pool, err := formext.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if ex == nil {
		t.Fatal("nil extractor from Get")
	}
	// Pooled extractors share the parse-once default grammar.
	ex2, err := formext.New()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Grammar() != ex2.Grammar() {
		t.Error("pooled extractor does not share the default grammar")
	}
	pool.Put(ex)
	pool.Put(nil) // must be a no-op
}

func TestPoolRejectsInvalidOptions(t *testing.T) {
	if _, err := formext.NewPool(formext.Options{GrammarSource: "start Nope;"}); err == nil {
		t.Error("invalid grammar must fail NewPool")
	}
	if _, err := formext.NewPool(formext.Options{}, formext.Options{}); err == nil {
		t.Error("two Options values must fail NewPool")
	}
}

func TestPoolConcurrentExtract(t *testing.T) {
	// The serving pattern: many goroutines sharing one pool (and therefore
	// one grammar and one schedule). Run under -race by the tier-1 target.
	pool, err := formext.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := pool.ExtractBytes(context.Background(), []byte(dataset.QamHTML))
				if err != nil {
					errs <- err
					return
				}
				if len(res.Model.Conditions) == 0 {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSharedExtractorConcurrentUse(t *testing.T) {
	// The audited guarantee behind the pool: one Extractor, used from many
	// goroutines at once, is race-free because all per-parse state is
	// allocated per call.
	ex, err := formext.New()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ex.ExtractHTML(dataset.QaaHTML)
			if err != nil || len(res.Model.Conditions) == 0 {
				t.Errorf("concurrent extract: %v", err)
			}
		}()
	}
	wg.Wait()
}
