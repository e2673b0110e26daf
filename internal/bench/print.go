package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
)

func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// PrintOptimizationRows writes the Figure 4 table.
func PrintOptimizationRows(w io.Writer, rows []OptimizationRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tvariant\tmean latency\tpushes\tpropagations\tdup attempts\tspeedup vs Vanilla")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%v\t%d\t%d\t%d\t%.2fx\n",
			r.Dataset, r.Variant, r.MeanLatency, r.Pushes, r.Propagations, r.DupAttempts, r.SpeedupOverVanilla)
	}
	return tw.Flush()
}

// PrintThroughputRows writes the Figure 5 table.
func PrintThroughputRows(w io.Writer, rows []ThroughputRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tapproach\tbatch size\tedges/sec\tmean latency")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.0f\t%v\n",
			r.Dataset, r.Approach, r.BatchSize, r.EdgesPerSecond, r.MeanLatency)
	}
	return tw.Flush()
}

// PrintEpsilonRows writes the Figure 6 table.
func PrintEpsilonRows(w io.Writer, rows []EpsilonRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tapproach\tepsilon\tmean latency\tpushes")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.0e\t%v\t%d\n",
			r.Dataset, r.Approach, r.Epsilon, r.MeanLatency, r.Pushes)
	}
	return tw.Flush()
}

// PrintSourceRows writes the Figure 7 table.
func PrintSourceRows(w io.Writer, rows []SourceRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tapproach\tsource bucket\tsource degree\tmean latency")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%v\n",
			r.Dataset, r.Approach, r.Bucket, r.SourceDegree, r.MeanLatency)
	}
	return tw.Flush()
}

// PrintBatchSizeRows writes the Figure 8 table.
func PrintBatchSizeRows(w io.Writer, rows []BatchSizeRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tapproach\tbatch ratio\tbatch size\tmean latency\tspeedup vs Seq")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%d\t%v\t%.2fx\n",
			r.Dataset, r.Approach, r.Ratio, r.BatchSize, r.MeanLatency, r.SpeedupOverSeq)
	}
	return tw.Flush()
}

// PrintResourceRows writes the Figure 9 table.
func PrintResourceRows(w io.Writer, rows []ResourceRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tbatch size\tmean frontier\tpeak frontier\trandom accesses/update\tatomics/update\titerations")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%d\t%.1f\t%.1f\t%d\n",
			r.Dataset, r.BatchSize, r.MeanFrontier, r.PeakFrontier,
			r.RandomAccessesPerUpdate, r.AtomicsPerUpdate, r.Iterations)
	}
	return tw.Flush()
}

// PrintScalabilityRows writes the Figure 10 table.
func PrintScalabilityRows(w io.Writer, rows []ScalabilityRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tworkers\tedges/sec\tspeedup vs 1 worker")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.2fx\n",
			r.Dataset, r.Workers, r.EdgesPerSecond, r.SpeedupOverOneWorker)
	}
	return tw.Flush()
}

// PrintAccuracyRows writes the accuracy report.
func PrintAccuracyRows(w io.Writer, rows []AccuracyRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "dataset\tapproach\tepsilon\tmax |P - pi|")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.0e\t%.3g\n", r.Dataset, r.Approach, r.Epsilon, r.MaxError)
	}
	return tw.Flush()
}
