// Package oracle is the failsite corpus twin of internal/oracle: it holds
// the canonical flushFaultSites list the view package's consulted sites
// must match exactly.
package oracle

// flushFaultSites is the crash-point list the differential oracle iterates;
// parity with the view package's consulted sites is checked both ways.
var flushFaultSites = []string{
	"s-insert",
	"s-delete",
	"s-kinds",
	"s-stale-oracle", // want `the oracle fault matrix \(flushFaultSites\) lists site "s-stale-oracle", which no flush-path mutation consults`
	"s-dup",          // want `the oracle fault matrix \(flushFaultSites\) lists site "s-dup", which no flush-path mutation consults`
	"s-dup",          // want `duplicate failpoint site "s-dup" in flushFaultSites — site names must be unique`
}
