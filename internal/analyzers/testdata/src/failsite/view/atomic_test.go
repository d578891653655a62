package view

// faultCase mirrors the fault-matrix table shape of the real
// view/atomic_test.go: the analyzer reads wantSites composites straight out
// of the test source.
type faultCase struct {
	name      string
	wantSites []string
}

var faultMatrix = []faultCase{
	{
		name: "flush",
		wantSites: []string{
			"s-insert",
			"s-delete",
			"s-kinds",
			"s-stale-test", // want `the view test fault matrix \(wantSites\) lists site "s-stale-test", which no flush-path mutation consults`
		},
	},
}
