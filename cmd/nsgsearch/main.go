// Command nsgsearch queries a saved NSG index against a query file,
// reporting recall (when ground truth is supplied) and throughput.
//
// Usage:
//
//	nsgsearch -index sift10k.nsg -query data/sift10k_query.fvecs \
//	          -gt data/sift10k_groundtruth.ivecs -k 10 -l 60
//
// -index takes a file written by any index's Save, whatever its shard
// count: nsgbuild -out, nsgserve -save, or nsg.Index.Save.
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
		fmt.Fprintf(os.Stderr, "nsgsearch: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nsgsearch", flag.ContinueOnError)
	indexPath := fs.String("index", "", "saved index (nsgbuild -out, nsgserve -save, or any Save file)")
	queryPath := fs.String("query", "", "query vectors (.fvecs)")
	gtPath := fs.String("gt", "", "optional ground truth (.ivecs)")
	k := fs.Int("k", 10, "neighbors to retrieve")
	l := fs.Int("l", 60, "search pool size (higher = more accurate, slower)")
	workers := fs.Int("workers", 1, "concurrent search workers (0 = GOMAXPROCS); each worker reuses one search context")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" || *queryPath == "" {
		return fmt.Errorf("-index and -query are required")
	}
	idx, err := nsg.Load(*indexPath)
	if err != nil {
		return err
	}
	queries, err := dataset.LoadFvecsFile(*queryPath)
	if err != nil {
		return err
	}
	if queries.Dim != idx.Dim() {
		return fmt.Errorf("query dim %d != index dim %d", queries.Dim, idx.Dim())
	}

	qs := make([][]float32, queries.Rows)
	for qi := 0; qi < queries.Rows; qi++ {
		qs[qi] = queries.Row(qi)
	}
	start := time.Now()
	batch := idx.SearchBatch(qs, *k, *l, *workers)
	elapsed := time.Since(start)
	results := make([][]int32, queries.Rows)
	for qi, r := range batch {
		results[qi] = r.IDs
	}
	fmt.Fprintf(stdout, "%d queries in %.3fs (%.0f QPS, %.3f ms/query)\n",
		queries.Rows, elapsed.Seconds(),
		float64(queries.Rows)/elapsed.Seconds(),
		elapsed.Seconds()*1000/float64(queries.Rows))

	if *gtPath != "" {
		gt, err := dataset.LoadIvecsFile(*gtPath)
		if err != nil {
			return err
		}
		if len(gt) < queries.Rows {
			return fmt.Errorf("ground truth has %d rows, queries %d", len(gt), queries.Rows)
		}
		fmt.Fprintf(stdout, "recall@%d = %.4f\n", *k, dataset.MeanRecall(results, gt[:queries.Rows], *k))
		return nil
	}
	for qi := 0; qi < queries.Rows && qi < 3; qi++ {
		fmt.Fprintf(stdout, "query %d: %v\n", qi, results[qi])
	}
	return nil
}
