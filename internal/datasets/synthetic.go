package datasets

import (
	"math"
	"math/rand"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
)

// Econ simulates the Victoria-1880 economic network of the paper's
// robustness study: a core–periphery contract network in which a small
// core of banks is densely interconnected and the firm periphery attaches
// to a few banks plus other firms. Matches Table I's regime (n = 1258,
// avg degree ≈ 12, 20 attributes: a 10-sector one-hot plus balance-sheet
// style numeric channels). The robustness experiment derives targets from
// it with MakeTarget. n ≤ 0 selects the paper's 1258 nodes.
func Econ(n int, seed int64) *graph.Graph {
	if n <= 0 {
		n = 1258
	}
	rng := rand.New(rand.NewSource(seed))
	nBanks := n / 30
	if nBanks < 4 {
		nBanks = min(4, n)
	}
	b := graph.NewBuilder(n)
	// Dense interbank core.
	for i := 0; i < nBanks; i++ {
		for j := i + 1; j < nBanks; j++ {
			if rng.Float64() < 0.5 {
				b.AddEdge(i, j)
			}
		}
	}
	// Firms: contracts with 1–3 banks, Zipf-biased towards big banks.
	z := rand.NewZipf(rng, 1.2, 2, uint64(nBanks-1))
	for f := nBanks; f < n; f++ {
		banks := 1 + rng.Intn(3)
		for i := 0; i < banks; i++ {
			b.AddEdge(f, int(z.Uint64()))
		}
	}
	// Firm–firm contracts tuned so the total average degree lands ≈ 12.
	nFirms := n - nBanks
	wantFirmEdges := 6*n - b.NumEdges() // avg deg 12 ⇒ ~6n edges total
	p := float64(wantFirmEdges) / (float64(nFirms) * float64(nFirms-1) / 2)
	for i := nBanks; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	g := b.Build()

	attrs := dense.New(n, 20)
	for i := 0; i < n; i++ {
		row := attrs.Row(i)
		sector := rng.Intn(10)
		if i < nBanks {
			sector = 0 // banks share the finance sector
		}
		row[sector] = 1
		for j := 10; j < 20; j++ {
			row[j] = rng.NormFloat64()
		}
	}
	return g.WithAttrs(attrs)
}

// BN simulates the BigBrain voxel-fibre network: nodes are jittered grid
// points in the unit cube, edges connect spatially close voxels with a
// distance-decaying probability. This produces the spatially clustered,
// triangle- and quadrangle-rich topology (avg degree ≈ 10) that makes
// orbit weighting informative on the real BN dataset. Attributes are 20
// channels: an 8-octant one-hot, the 3 coordinates, and 9 noisy intensity
// channels. n ≤ 0 selects the paper's 1781 nodes.
func BN(n int, seed int64) *graph.Graph {
	if n <= 0 {
		n = 1781
	}
	rng := rand.New(rand.NewSource(seed))
	side := int(math.Ceil(math.Cbrt(float64(n))))
	pos := make([][3]float64, n)
	v := 0
	for x := 0; x < side && v < n; x++ {
		for y := 0; y < side && v < n; y++ {
			for z := 0; z < side && v < n; z++ {
				jitter := 0.3 / float64(side)
				pos[v] = [3]float64{
					(float64(x) + 0.5) / float64(side) * (1 + jitter*rng.NormFloat64()),
					(float64(y) + 0.5) / float64(side) * (1 + jitter*rng.NormFloat64()),
					(float64(z) + 0.5) / float64(side) * (1 + jitter*rng.NormFloat64()),
				}
				v++
			}
		}
	}
	// Connection radius for an expected degree of ≈ 10:
	// deg ≈ n·(4/3)πr³·acceptance.
	const accept = 0.7
	r := math.Cbrt(10 * 3 / (4 * math.Pi * float64(n) * accept))
	r2 := r * r
	b := graph.NewBuilder(n)
	// Grid bucketing keeps neighbour search near-linear.
	cells := make(map[[3]int][]int32)
	cellOf := func(p [3]float64) [3]int {
		return [3]int{int(p[0] / r), int(p[1] / r), int(p[2] / r)}
	}
	for i := 0; i < n; i++ {
		cells[cellOf(pos[i])] = append(cells[cellOf(pos[i])], int32(i))
	}
	for i := 0; i < n; i++ {
		c := cellOf(pos[i])
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					for _, j := range cells[[3]int{c[0] + dx, c[1] + dy, c[2] + dz}] {
						if int(j) <= i {
							continue
						}
						d2 := sq(pos[i][0]-pos[j][0]) + sq(pos[i][1]-pos[j][1]) + sq(pos[i][2]-pos[j][2])
						if d2 < r2 && rng.Float64() < accept {
							b.AddEdge(i, int(j))
						}
					}
				}
			}
		}
	}
	g := b.Build()

	attrs := dense.New(n, 20)
	for i := 0; i < n; i++ {
		row := attrs.Row(i)
		oct := 0
		if pos[i][0] > 0.5 {
			oct |= 1
		}
		if pos[i][1] > 0.5 {
			oct |= 2
		}
		if pos[i][2] > 0.5 {
			oct |= 4
		}
		row[oct] = 1
		row[8], row[9], row[10] = pos[i][0], pos[i][1], pos[i][2]
		for j := 11; j < 20; j++ {
			row[j] = rng.NormFloat64() * 0.3
		}
	}
	return g.WithAttrs(attrs)
}

func sq(x float64) float64 { return x * x }

// Table1 generates all eight networks of the paper's Table I at their
// default scales and returns their statistics rows.
func Table1(seed int64) []Stats {
	movie := AllmovieImdb(0, seed)
	douban := Douban(0, seed+1)
	flickr := FlickrMyspace(0, seed+2)
	econ := Econ(0, seed+3)
	bn := BN(0, seed+4)
	return []Stats{
		StatsOf("Allmovie", movie.Source),
		StatsOf("Imdb", movie.Target),
		StatsOf("Douban Online", douban.Source),
		StatsOf("Douban Offline", douban.Target),
		StatsOf("Flickr", flickr.Source),
		StatsOf("Myspace", flickr.Target),
		StatsOf("Econ", econ),
		StatsOf("BN", bn),
	}
}
