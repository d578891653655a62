package analyzers

import (
	"sort"
	"strings"
)

// Suppression directives. A diagnostic can be acknowledged in source with
//
//	//ojvlint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the flagged line or on the line directly above it. The reason is
// mandatory: an ignore without one (or naming no analyzer) is itself
// reported, so vetted findings always carry their justification next to the
// code they excuse. It is the only way to vet a finding: CI and
// TestRepoClean fail on any other.

const ignorePrefix = "//ojvlint:ignore"

// suppressionIndex records, per file and line, which analyzers are ignored.
type suppressionIndex map[string]map[int][]string

// collectSuppressions scans the comments of the given packages, building the
// index and reporting malformed directives under the pseudo-analyzer name
// "ojvlint".
func collectSuppressions(pkgs []*Package, diags *[]Diagnostic) suppressionIndex {
	idx := make(suppressionIndex)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, ignorePrefix)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						*diags = append(*diags, Diagnostic{
							Analyzer: "ojvlint",
							Pos:      pos,
							Message:  "malformed ignore directive: want //ojvlint:ignore <analyzer>[,<analyzer>] <reason>",
						})
						continue
					}
					names := strings.Split(fields[0], ",")
					byLine := idx[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]string)
						idx[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], names...)
				}
			}
		}
	}
	return idx
}

// suppresses reports whether a directive on the diagnostic's line, or on the
// line directly above it, names the diagnostic's analyzer.
func (idx suppressionIndex) suppresses(d Diagnostic) bool {
	byLine := idx[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, name := range byLine[line] {
			if name == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// filterSuppressed drops suppressed diagnostics in place.
func filterSuppressed(diags []Diagnostic, idx suppressionIndex) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if !idx.suppresses(d) {
			out = append(out, d)
		}
	}
	return out
}

// sortDiagnostics orders diagnostics by file, line, then analyzer, the
// deterministic presentation order every runner uses.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
