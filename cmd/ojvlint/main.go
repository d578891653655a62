// Command ojvlint is the multichecker for this module's six custom static
// analyses (rowalias, locksafe, errfmt, lockorder, failsite, srcclose — see
// internal/analyzers). It loads and type-checks packages without the go
// tool, so it runs offline:
//
//	go run ./cmd/ojvlint ./...          # whole module (from anywhere inside it)
//	go run ./cmd/ojvlint ./internal/exec
//	go run ./cmd/ojvlint -json ./...
//
// Each argument is either ./... (the whole module) or a directory. With no
// arguments, ./... is assumed. The module-wide passes (lockorder,
// failsite) see exactly the packages loaded, so run ./... for
// their full-fidelity results. Diagnostics print one per line in
// file:line:col: analyzer: message form (or as a JSON array with -json);
// the exit status is non-zero when any diagnostic is reported.
//
// A vetted finding carries an //ojvlint:ignore annotation next to the code
// it excuses; there is no other way to silence one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ojv/internal/analyzers"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ojvlint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// jsonDiag is the -json wire form of one diagnostic.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, out *os.File) (int, error) {
	fs := flag.NewFlagSet("ojvlint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	loader, err := analyzers.NewLoader(".")
	if err != nil {
		return 2, err
	}
	var pkgs []*analyzers.Package
	targets := fs.Args()
	if len(targets) == 0 {
		targets = []string{"./..."}
	}
	for _, arg := range targets {
		switch {
		case arg == "./..." || arg == "...":
			all, err := loader.LoadAll()
			if err != nil {
				return 2, err
			}
			pkgs = append(pkgs, all...)
		default:
			dir, err := filepath.Abs(strings.TrimSuffix(arg, "/"))
			if err != nil {
				return 2, err
			}
			rel, err := filepath.Rel(loader.Root(), dir)
			if err != nil || strings.HasPrefix(rel, "..") {
				return 2, fmt.Errorf("%s is outside the module", arg)
			}
			path := loader.ModulePath()
			if rel != "." {
				path = loader.ModulePath() + "/" + filepath.ToSlash(rel)
			}
			pkg, err := loader.LoadDir(dir, path)
			if err != nil {
				return 2, err
			}
			pkgs = append(pkgs, pkg)
		}
	}

	diags, err := analyzers.RunAll(pkgs, analyzers.All())
	if err != nil {
		return 2, err
	}

	if *jsonOut {
		js := []jsonDiag{}
		for _, d := range diags {
			rel := d.Pos.Filename
			if r, err := filepath.Rel(loader.Root(), rel); err == nil && !strings.HasPrefix(r, "..") {
				rel = filepath.ToSlash(r)
			}
			js = append(js, jsonDiag{File: rel, Line: d.Pos.Line, Col: d.Pos.Column, Analyzer: d.Analyzer, Message: d.Message})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(js); err != nil {
			return 2, err
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ojvlint: %d diagnostic(s)\n", len(diags))
		return 1, nil
	}
	return 0, nil
}
