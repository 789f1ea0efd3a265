package invariant_test

import (
	"testing"

	"scan/internal/invariant"
	"scan/internal/invariant/vettest"
)

// TestAnalyzers proves each analyzer fires on its seeded violations and
// stays quiet on the adjacent compliant idioms, analysistest-style: the
// testdata packages carry `// want` comments that must match the findings
// exactly in both directions.
func TestAnalyzers(t *testing.T) {
	t.Run("ctxpoll", func(t *testing.T) {
		vettest.Run(t, invariant.CtxPoll, "testdata/src/ctxpoll/a")
	})
	t.Run("lockedcall", func(t *testing.T) {
		vettest.Run(t, invariant.LockedCall, "testdata/src/lockedcall/a")
	})
	t.Run("nomutate", func(t *testing.T) {
		vettest.Run(t, invariant.NoMutate, "testdata/src/nomutate/a")
	})
	t.Run("flushread", func(t *testing.T) {
		vettest.Run(t, invariant.FlushRead, "testdata/src/flushread/knowledge")
	})
}

// TestSuite pins the suite's composition: four analyzers, stable order,
// unique names — cmd/scanvet's -run flag and the CI step key off these.
func TestSuite(t *testing.T) {
	want := []string{"ctxpoll", "lockedcall", "nomutate", "flushread"}
	suite := invariant.Suite()
	if len(suite) != len(want) {
		t.Fatalf("Suite() has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("Suite()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}
