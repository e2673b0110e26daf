package push

// NewParallelCutover is NewParallel with an explicit cutover, so tests can
// fan out rounds the default cutover would run on one worker.
func NewParallelCutover(variant Variant, workers, cutover int) *Parallel {
	e := NewParallel(variant, workers)
	e.cutover = cutover
	return e
}

// NewSortAggregateCutover is NewSortAggregate with an explicit cutover.
func NewSortAggregateCutover(workers, cutover int) *SortAggregate {
	e := NewSortAggregate(workers)
	e.cutover = cutover
	return e
}
