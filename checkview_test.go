package ojv_test

import (
	"strings"
	"testing"

	"ojv"
)

// TestCheckViewFacade: the public entry point to the plan-invariant
// verifier accepts a healthy view, under the default options and with every
// optimization disabled.
func TestCheckViewFacade(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	if err := ojv.CheckView(v); err != nil {
		t.Fatalf("CheckView on a healthy view: %v", err)
	}

	db2 := newShopDB(t)
	v2 := shopView(t, db2, ojv.Options{
		DisableLeftDeep: true, DisableFKSimplify: true, DisableFKGraph: true,
		Strategy: ojv.StrategyFromBase,
	})
	if err := ojv.CheckView(v2); err != nil {
		t.Fatalf("CheckView with all optimizations off: %v", err)
	}
}

// TestCheckViewDiagnosticsCiteSections: every verifier diagnostic names the
// paper section whose invariant failed, so a violation surfaced through the
// facade is actionable.
func TestCheckViewDiagnosticsCiteSections(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db, ojv.Options{Strategy: ojv.StrategyFromBase})
	if err := ojv.CheckView(v); err != nil {
		if !strings.Contains(err.Error(), "§") {
			t.Fatalf("diagnostic %q does not cite a paper section", err)
		}
		t.Fatalf("CheckView rejected a from-base shop view: %v", err)
	}
}
