package ann

// Stats is an index's skew-observability block: how balanced the hash
// came out and how much work queries did. Fit and TopK accumulate into
// it; Index.Stats returns a copy, and Merge folds the stats of several
// indexes (the two directions of a fine-tune loop, the per-orbit runs of
// a pipeline) into one block. Counter sums are order-independent, so
// merged totals are deterministic regardless of worker count or merge
// order.
type Stats struct {
	// Fits counts Fit calls; Rows counts rows hashed across them (zero
	// on the exact path, which skips hashing).
	Fits int64
	Rows int64
	// Buckets and MaxBucket describe the last fit's table: bucket count
	// 2^Bits and the largest first-level bucket occupancy. Rehashed
	// counts the oversized buckets given a second-level table on the
	// last fit.
	Buckets   int
	MaxBucket int
	Rehashed  int64
	// Occupancy is the last fit's bucket-occupancy histogram in log2
	// bins: Occupancy[i] counts non-empty buckets holding [2^(i-1), 2^i)
	// rows (bin 1 = exactly 1 row). A balanced hash concentrates around
	// the mean-occupancy bin; a skewed one grows a long tail.
	Occupancy []int64
	// Queries, PoolRows and PoolRowsMax describe query-side work: total
	// queries answered, total candidate rows gathered for re-ranking,
	// and the largest single pool. PoolRows/Queries is the mean pool —
	// the series the skew benchmark gates.
	Queries     int64
	PoolRows    int64
	PoolRowsMax int
}

// Merge folds o into s: counters add, maxima take the larger side, and
// the occupancy histograms add elementwise.
func (s *Stats) Merge(o Stats) {
	s.Fits += o.Fits
	s.Rows += o.Rows
	if o.Buckets > s.Buckets {
		s.Buckets = o.Buckets
	}
	if o.MaxBucket > s.MaxBucket {
		s.MaxBucket = o.MaxBucket
	}
	s.Rehashed += o.Rehashed
	if len(o.Occupancy) > 0 {
		if s.Occupancy == nil {
			s.Occupancy = make([]int64, len(o.Occupancy))
		}
		for i, v := range o.Occupancy {
			if i < len(s.Occupancy) {
				s.Occupancy[i] += v
			}
		}
	}
	s.Queries += o.Queries
	s.PoolRows += o.PoolRows
	if o.PoolRowsMax > s.PoolRowsMax {
		s.PoolRowsMax = o.PoolRowsMax
	}
}

// PoolRowsMean returns the mean candidate-pool size per query, 0 before
// any query ran.
func (s Stats) PoolRowsMean() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.PoolRows) / float64(s.Queries)
}
