// Command report regenerates every table and figure of the paper in one
// run and prints the full text report — the data behind EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"
)

import (
	"github.com/relay-networks/privaterelay/internal/atomicio"
	"github.com/relay-networks/privaterelay/internal/experiments"
	"github.com/relay-networks/privaterelay/internal/profiling"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 42, "world seed")
		scale    = flag.Float64("scale", 0.002, "client-universe scale (1.0 = paper scale: about 25 s and 300 MiB on two CPUs; the real scan took 40 h)")
		out      = flag.String("out", "", "also write the report to this file")
		figures  = flag.String("figures", "", "also export every figure's raw series as CSV files into this directory")
		profiles = profiling.Register()
	)
	flag.Parse()
	defer profiles.Start()()

	start := time.Now()
	env := experiments.NewEnv(*seed, *scale)
	report, err := env.FullReport(context.Background())
	if err != nil {
		log.Fatalf("report: %v", err)
	}
	if *figures != "" {
		if err := os.MkdirAll(*figures, 0o755); err != nil {
			log.Fatal(err)
		}
		files, err := env.ExportFigures(context.Background(), *figures, 96)
		if err != nil {
			log.Fatalf("figures: %v", err)
		}
		report += fmt.Sprintf("\nexported %d figure series to %s\n", len(files), *figures)
	}
	report += fmt.Sprintf("\ngenerated in %v\n", time.Since(start).Truncate(time.Millisecond))
	fmt.Print(report)
	if *out != "" {
		if err := atomicio.WriteFile(*out, func(w io.Writer) error {
			_, werr := io.WriteString(w, report)
			return werr
		}); err != nil {
			log.Fatal(err)
		}
	}
}
