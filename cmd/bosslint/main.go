// Command bosslint runs the repository's static-analysis suite — the
// mechanical enforcement of DESIGN.md's "Enforced invariants" — over Go
// package patterns:
//
//	go run ./cmd/bosslint ./...
//	go build -o bin/bosslint ./cmd/bosslint && ./bin/bosslint ./...
//
// It prints file:line:col: [analyzer] message for every finding, in the
// suite's canonical order — (file, line, column, analyzer, message),
// independent of analyzer registration and package iteration, so
// successive runs diff cleanly in CI. The driver is self-contained (the
// repository builds offline, so it cannot use x/tools' multichecker); it
// accepts the same package patterns go vet does.
//
// Flags:
//
//	-checks a,b   run only the named analyzers (default: all)
//	-list         list analyzers and exit
//	-dir path     module directory to resolve patterns in (default: .)
//	-json         emit findings as a JSON report on stdout
//
// Exit codes:
//
//	0   clean — no findings
//	1   findings reported
//	2   usage, load, or analysis error (nothing was checked)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"boss/internal/analysis"
	"boss/internal/analysis/ctxflow"
	"boss/internal/analysis/errpropagation"
	"boss/internal/analysis/goroutineleak"
	"boss/internal/analysis/hotpathalloc"
	"boss/internal/analysis/hotpathescape"
	"boss/internal/analysis/lockorder"
	"boss/internal/analysis/poolhygiene"
	"boss/internal/analysis/simdeterminism"
)

// suite is every analyzer bosslint ships, in -list order.
var suite = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	hotpathalloc.Analyzer,
	poolhygiene.Analyzer,
	errpropagation.Analyzer,
	ctxflow.Analyzer,
	lockorder.Analyzer,
	goroutineleak.Analyzer,
	hotpathescape.Analyzer,
}

// finding is one diagnostic in the -json report.
type finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// report is the -json document.
type report struct {
	Patterns []string       `json:"patterns"`
	Checks   []string       `json:"checks"`
	Findings []finding      `json:"findings"`
	ByCheck  map[string]int `json:"by_check"`
}

func main() {
	var (
		checks  = flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
		list    = flag.Bool("list", false, "list analyzers and exit")
		dir     = flag.String("dir", ".", "module directory to resolve patterns in")
		jsonOut = flag.Bool("json", false, "emit findings as a JSON report on stdout")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bosslint [flags] [packages]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, `
Exit codes:
  0  clean — no findings
  1  findings reported
  2  usage, load, or analysis error (nothing was checked)
`)
	}
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	analyzers := suite
	if *checks != "" {
		byName := make(map[string]*analysis.Analyzer, len(suite))
		for _, a := range suite {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*checks, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "bosslint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bosslint: %v\n", err)
		os.Exit(2)
	}
	diags, err := prog.Run(analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bosslint: %v\n", err)
		os.Exit(2)
	}

	byCheck := make(map[string]int)
	for _, a := range analyzers {
		byCheck[a.Name] = 0
	}
	fset := prog.Fset()
	if *jsonOut {
		rep := report{Patterns: patterns, Findings: []finding{}, ByCheck: byCheck}
		for _, a := range analyzers {
			rep.Checks = append(rep.Checks, a.Name)
		}
		for _, d := range diags {
			p := d.Posn(fset)
			rep.Findings = append(rep.Findings, finding{
				File: p.Filename, Line: p.Line, Col: p.Column,
				Check: d.Analyzer, Message: d.Message,
			})
			byCheck[d.Analyzer]++
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "bosslint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: [%s] %s\n", d.Posn(fset), d.Analyzer, d.Message)
			byCheck[d.Analyzer]++
		}
	}
	if len(diags) > 0 {
		var parts []string
		for _, a := range analyzers {
			if n := byCheck[a.Name]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", a.Name, n))
			}
		}
		fmt.Fprintf(os.Stderr, "bosslint: %d finding(s) (%s)\n", len(diags), strings.Join(parts, ", "))
		os.Exit(1)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
