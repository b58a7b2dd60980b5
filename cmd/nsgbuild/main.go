// Command nsgbuild builds an NSG index from a base-vector file in .fvecs
// format and writes the index (vectors + graph) to disk.
//
// Usage:
//
//	nsgbuild -base data/sift10k_base.fvecs -out sift10k.nsg -k 40 -l 50 -m 30
//
// The output is an Index.Save file, the one format every index writes:
// nsgsearch -index and nsgserve -index read it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/dataset"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "nsgbuild: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nsgbuild", flag.ContinueOnError)
	basePath := fs.String("base", "", "base vectors (.fvecs)")
	out := fs.String("out", "index.nsg", "output index path")
	opts := nsg.DefaultOptions()
	fs.IntVar(&opts.GraphK, "k", opts.GraphK, "kNN graph neighbors (paper's k)")
	fs.IntVar(&opts.BuildL, "l", opts.BuildL, "build pool size (paper's l)")
	fs.IntVar(&opts.MaxDegree, "m", opts.MaxDegree, "max out-degree (paper's m)")
	fs.BoolVar(&opts.ExactKNN, "exact", false, "use the exact kNN graph builder")
	fs.Int64Var(&opts.Seed, "seed", opts.Seed, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" {
		return fmt.Errorf("-base is required")
	}
	base, err := dataset.LoadFvecsFile(*basePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "loaded %d vectors of dimension %d\n", base.Rows, base.Dim)

	start := time.Now()
	idx, err := nsg.BuildFromFlat(base.Data, base.Dim, opts)
	if err != nil {
		return err
	}
	st := idx.Stats()
	fmt.Fprintf(stdout, "built in %.2fs: avg degree %.1f, max degree %d, index %.2f MB\n",
		time.Since(start).Seconds(), st.AvgDegree, st.MaxDegree, float64(st.IndexBytes)/(1<<20))
	if err := idx.Save(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return nil
}
