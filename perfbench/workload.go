package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/server"
)

// op is one request of a workload: a POST /query (Val empty) or a
// POST /val/{Val} rebinding (Val set, Text the exchange-format body).
// Want is the expected answer, computed in closed form when the workload is
// generated: the exchange text of the query's value, or the type the server
// reports for a rebinding.
type op struct {
	Query string
	Args  map[string]string
	Val   string
	Text  string
	Want  answer

	body []byte // the HTTP request body, encoded before any clock starts
}

// answer is an expected answer's text held as a digest. Responses are
// compared by their digest, which equals the answer's exactly when the
// texts are equal (up to a 2^-64 collision). Holding the full texts would
// make the mixed workload's expected answers, not the server, dominate
// peak_rss_mb.
type answer uint64

var answerSeed = maphash.MakeSeed()

func digest(text string) answer { return answer(maphash.String(answerSeed, text)) }

func (o *op) write() bool { return o.Val != "" }

// readval is the statement that binds the workload's NetCDF variable.
func (w *workload) readval() string {
	return fmt.Sprintf(`readval \W using NETCDF at (%q, %q);`, w.NCPath, w.NCVar)
}

// workload is everything one run sends: the set-up sequence (input loads
// through POST /val, then warm-up requests) and the timed sequence. The
// program sees only these generated inputs.
type workload struct {
	Name string
	// NCPath and NCVar name a NetCDF variable the session binds to W with
	// readval before the server starts (none when NCPath is empty).
	NCPath string
	NCVar  string
	// TileCells and TileBudget configure the session's tile cache; zero
	// keeps the defaults.
	TileCells  int
	TileBudget int64
	// VarCells is the size of the NetCDF variable in cells (0 without one).
	VarCells int
	Setup    []op
	Ops      []op
}

// spec describes one workload: its generator and how many operations make
// one second of a run. Runs replay a fixed number of operations
// (seconds × rate), never a time window, so every run of a workload does
// identical work.
type spec struct {
	name string
	rate int // nominal operations per second of --seconds
	gen  func(seed int64, nops int, dir string) (*workload, error)
}

// specs are the workloads; README.md gives the reason for each.
var specs = []spec{
	{"kernel", 330, genKernel},
	{"adhoc", 1400, genAdhoc},
	{"ooc", 1100, genOOC},
	{"mixed", 650, genMixed},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// encode fills each op's HTTP body. Map keys marshal in sorted order, so
// bodies are byte-identical for identical ops.
func (w *workload) encode() error {
	for _, seq := range [][]op{w.Setup, w.Ops} {
		for i := range seq {
			o := &seq[i]
			if o.write() {
				o.body = []byte(o.Text)
				continue
			}
			b, err := json.Marshal(server.QueryRequest{Query: o.Query, Args: o.Args})
			if err != nil {
				return fmt.Errorf("encode request: %w", err)
			}
			o.body = b
		}
	}
	return nil
}

// --- exchange-format rendering of expected answers ---------------------------

// fmtReal renders a real the way the exchange format does: %g, with ".0"
// appended when the text would otherwise read back as a nat.
func fmtReal(x float64) string {
	s := strconv.FormatFloat(x, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

func fmtNat(n int64) string { return strconv.FormatInt(n, 10) }

// fmtArray renders a row-major array: [[c, ...]] for one dimension,
// [[n1, n2; c, ...]] for more.
func fmtArray(shape []int, cells []string) string {
	var b strings.Builder
	b.WriteString("[[")
	if len(shape) > 1 {
		for i, n := range shape {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.Itoa(n))
		}
		b.WriteString("; ")
	}
	b.WriteString(strings.Join(cells, ", "))
	b.WriteString("]]")
	return b.String()
}

// fmtNatSet renders a set of nats: distinct, ascending.
func fmtNatSet(xs []int64) string {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	var cells []string
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			cells = append(cells, fmtNat(x))
		}
	}
	return "{" + strings.Join(cells, ", ") + "}"
}

func natCells(xs []int64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmtNat(x)
	}
	return out
}

// natArray is an exchange-format 1-D nat array.
func natArray(xs []int64) string { return fmtArray([]int{len(xs)}, natCells(xs)) }

// balanced returns n labels in [0, k) with counts as equal as possible, in
// seeded order, so every run of a workload has the same mix of request
// classes whatever the seed.
func balanced(rng *rand.Rand, n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % k
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// --- kernel --------------------------------------------------------------------

// The kernel workload is the E19 matmul shape over a block of a dense real
// matrix: an 8×8 tabulation whose cells are 48-term dot products. The
// arguments pick the block, so every request does the same work. Matrix
// cells are multiples of 1/4 below 16, which keeps every dot product exact
// in float64 whatever the summation order.
const (
	kernelDim   = 168
	kernelOut   = 8
	kernelInner = 48
	kernelWarm  = 150
)

var kernelTemplate = fmt.Sprintf(
	`[[ summap(fn \k => M[i + $r, k] * M[k, j + $c])!(gen!%d) | \i < %d, \j < %d ]]`,
	kernelInner, kernelOut, kernelOut)

func genKernel(seed int64, nops int, _ string) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	m := make([]float64, kernelDim*kernelDim)
	cells := make([]string, len(m))
	for i := range m {
		m[i] = float64(rng.Intn(64)) / 4
		cells[i] = fmtReal(m[i])
	}
	w := &workload{Name: "kernel"}
	w.Setup = append(w.Setup, op{Val: "M", Text: fmtArray([]int{kernelDim, kernelDim}, cells), Want: digest("[[real]]_2")})
	req := func() op {
		r, c := rng.Intn(kernelDim-kernelOut+1), rng.Intn(kernelDim-kernelOut+1)
		out := make([]string, 0, kernelOut*kernelOut)
		for i := 0; i < kernelOut; i++ {
			for j := 0; j < kernelOut; j++ {
				var sum float64
				for k := 0; k < kernelInner; k++ {
					sum += m[(i+r)*kernelDim+k] * m[k*kernelDim+j+c]
				}
				out = append(out, fmtReal(sum))
			}
		}
		return op{
			Query: kernelTemplate,
			Args:  map[string]string{"r": fmtNat(int64(r)), "c": fmtNat(int64(c))},
			Want:  digest(fmtArray([]int{kernelOut, kernelOut}, out)),
		}
	}
	for i := 0; i < kernelWarm; i++ {
		w.Setup = append(w.Setup, req())
	}
	for i := 0; i < nops; i++ {
		w.Ops = append(w.Ops, req())
	}
	return w, nil
}

// --- adhoc ---------------------------------------------------------------------

// The adhoc workload sends a distinct query text on every request, drawn
// from eight surface shapes with tiny evaluation, so the plan cache never
// hits and the prepare pipeline does most of the work. Each text carries a
// serial constant (a) that makes it unique; the other constants (b, c) vary
// values, never sizes.
const (
	adhocShapes = 8
	adhocWarm   = 1200
	adhocVLen   = 16
)

func genAdhoc(seed int64, nops int, _ string) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	v := make([]int64, adhocVLen)
	for i := range v {
		v[i] = int64(rng.Intn(40))
	}
	w := &workload{Name: "adhoc"}
	w.Setup = append(w.Setup, op{Val: "V", Text: natArray(v), Want: digest("[[nat]]")})
	// Warm-up texts use serials above every timed serial, so no timed text
	// is ever prepared before the clock starts.
	for i, shape := range balanced(rng, adhocWarm, adhocShapes) {
		w.Setup = append(w.Setup, adhocPair(rng, shape, int64(1_000_000+i), v))
	}
	for i, shape := range balanced(rng, nops, adhocShapes) {
		w.Ops = append(w.Ops, adhocPair(rng, shape, int64(100+i), v))
	}
	return w, nil
}

// adhocPair asks for two shapes in one tuple, so the prepare pipeline,
// not the fixed HTTP cost of a request, is most of its wall.
func adhocPair(rng *rand.Rand, shape int, a int64, v []int64) op {
	xq, xa := adhocShape(rng, shape, a, v)
	yq, ya := adhocShape(rng, (shape+3)%adhocShapes, a, v)
	return op{Query: "(" + xq + ", " + yq + ")", Want: digest("(" + xa + ", " + ya + ")")}
}

// adhocShape returns one shape's query text and the text of its answer.
func adhocShape(rng *rand.Rand, shape int, a int64, v []int64) (query, want string) {
	b := int64(1 + rng.Intn(9))
	c := int64(rng.Intn(16))
	switch shape {
	case 0: // comprehension with a filter
		var xs []int64
		for x := int64(0); x < 6; x++ {
			for y := int64(0); y < 5; y++ {
				if x+y > c%8 {
					xs = append(xs, x*b+y+a)
				}
			}
		}
		return fmt.Sprintf(`{ x * %d + y + %d | \x <- gen!6, \y <- gen!5, x + y > %d }`, b, a, c%8), fmtNatSet(xs)
	case 1: // zip and reverse
		cells := make([]string, 6)
		for i := 0; i < 6; i++ {
			cells[i] = fmt.Sprintf("(%d, %d)", int64(i)*b+a, v[5-i]+c)
		}
		return fmt.Sprintf(`zip!([[ i * %d + %d | \i < 6 ]], reverse!([[ V[i] + %d | \i < 6 ]]))`, b, a, c), fmtArray([]int{6}, cells)
	case 2: // dom over a zip
		return fmt.Sprintf(`count!(dom!(zip!([[ i * i + %d | \i < 8 ]], reverse!([[ V[i] + %d | \i < 8 ]]))))`, a, b), "8"
	case 3: // subseq
		lo := c % 10
		xs := make([]int64, 0, 6)
		for i := lo; i <= lo+5; i++ {
			xs = append(xs, v[i]*b+a)
		}
		return fmt.Sprintf(`subseq!([[ V[i] * %d + %d | \i < 16 ]], %d, %d)`, b, a, lo, lo+5), natArray(xs)
	case 4: // let-blocks
		xs := make([]int64, 6)
		for i := range xs {
			xs[i] = a + a*b*int64(i) + v[i]
		}
		return fmt.Sprintf(`let val \u = %d in let val \w = u * %d in [[ u + w * i + V[i] | \i < 6 ]] end end`, a, b), natArray(xs)
	case 5: // conditional
		xs := make([]int64, 8)
		for i := range xs {
			if v[i] < c {
				xs[i] = int64(i) * b
			} else {
				xs[i] = int64(i) + a
			}
		}
		return fmt.Sprintf(`[[ if V[i] < %d then i * %d else i + %d | \i < 8 ]]`, c, b, a), natArray(xs)
	case 6: // summap
		var sum int64
		for i := 0; i < 12; i++ {
			sum += v[i]*b + a
		}
		return fmt.Sprintf(`summap(fn \i => V[i] * %d + %d)!(gen!12)`, b, a), fmtNat(sum)
	default: // transpose of a 2-D tabulation
		cells := make([]string, 0, 12)
		for j := int64(0); j < 4; j++ {
			for i := int64(0); i < 3; i++ {
				cells = append(cells, fmtNat(i*b+j+a))
			}
		}
		return fmt.Sprintf(`transpose!([[ i * %d + j + %d | \i < 3, \j < 4 ]])`, b, a), fmtArray([]int{4, 3}, cells)
	}
}

// --- ooc -----------------------------------------------------------------------

// The ooc workload sums fixed-width windows of a NetCDF variable bound
// lazily by readval. The variable is oocTiles tiles; the tile cache holds
// oocBudgetTiles of them, sized in cells so the ratio survives a change to
// the in-memory cell size. Eight in ten windows fall in a hot region that
// fits the budget, two in ten anywhere in the cold remainder, so misses and
// evictions occur throughout every run.
const (
	oocTileCells   = 4096
	oocTiles       = 64
	oocBudgetTiles = 12
	oocHotTiles    = 8
	oocWindow      = 1024
	oocWarm        = 700
	oocVar         = "series"
)

var oocTemplate = fmt.Sprintf(`summap(fn \i => W[i + $s])!(gen!%d)`, oocWindow)

func genOOC(seed int64, nops int, dir string) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	n := oocTiles * oocTileCells
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(rng.Intn(200)) / 2
	}
	path := filepath.Join(dir, "ooc.nc")
	nb := netcdf.NewBuilder()
	d0, err := nb.AddDim("x", n)
	if err != nil {
		return nil, err
	}
	if err := nb.AddVar(oocVar, netcdf.Double, []int{d0}, nil, data); err != nil {
		return nil, err
	}
	if err := nb.WriteFile(path); err != nil {
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	w := &workload{
		Name:       "ooc",
		NCPath:     path,
		NCVar:      oocVar,
		TileCells:  oocTileCells,
		TileBudget: int64(oocBudgetTiles*oocTileCells) * int64(unsafe.Sizeof(object.Value{})),
		VarCells:   n,
	}
	hot := oocHotTiles * oocTileCells
	req := func(cold bool) op {
		s := rng.Intn(hot - oocWindow + 1)
		if cold {
			s = hot + rng.Intn(n-hot-oocWindow+1)
		}
		var sum float64
		for i := s; i < s+oocWindow; i++ {
			sum += data[i]
		}
		return op{Query: oocTemplate, Args: map[string]string{"s": fmtNat(int64(s))}, Want: digest(fmtReal(sum))}
	}
	// Classes are balanced per block of ten, so the hot/cold mix is steady
	// along the run as well as across seeds.
	seq := func(count int) []op {
		out := make([]op, 0, count)
		for len(out) < count {
			for _, cls := range balanced(rng, 10, 5) {
				if len(out) == count {
					break
				}
				out = append(out, req(cls == 0))
			}
		}
		return out
	}
	w.Setup = seq(oocWarm)
	w.Ops = seq(nops)
	return w, nil
}

// --- mixed ---------------------------------------------------------------------

// The mixed workload interleaves templated reads returning ~1k-cell arrays
// with rebinds of the small array S they read. Each rebind bumps the
// environment epoch, retiring every cached plan, so the reads after it
// re-prepare. Segment lengths are a seeded shuffle of a fixed multiset, so
// the read/write ratio is the same in every run.
const (
	mixedSLen      = 16
	mixedWarmSegs  = 16
	mixedReadOneN  = 1024
	mixedReadTwoN  = 512
	mixedSegLenMin = 20
)

var mixedTemplates = [2]string{
	fmt.Sprintf(`[[ S[i %% %d] * $a + i | \i < %d ]]`, mixedSLen, mixedReadOneN),
	fmt.Sprintf(`zip!([[ S[i %% %d] + $b | \i < %d ]], reverse!([[ i * $b | \i < %d ]]))`, mixedSLen, mixedReadTwoN, mixedReadTwoN),
}

func genMixed(seed int64, nops int, _ string) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	newS := func() []int64 {
		s := make([]int64, mixedSLen)
		for i := range s {
			s[i] = int64(rng.Intn(50))
		}
		return s
	}
	read := func(s []int64, tmpl int) op {
		if tmpl == 0 {
			a := int64(1 + rng.Intn(20))
			xs := make([]int64, mixedReadOneN)
			for i := range xs {
				xs[i] = s[i%mixedSLen]*a + int64(i)
			}
			return op{Query: mixedTemplates[0], Args: map[string]string{"a": fmtNat(a)}, Want: digest(natArray(xs))}
		}
		b := int64(1 + rng.Intn(20))
		cells := make([]string, mixedReadTwoN)
		for i := range cells {
			cells[i] = fmt.Sprintf("(%d, %d)", s[i%mixedSLen]+b, int64(mixedReadTwoN-1-i)*b)
		}
		return op{Query: mixedTemplates[1], Args: map[string]string{"b": fmtNat(b)}, Want: digest(fmtArray([]int{mixedReadTwoN}, cells))}
	}
	rebind := func(s []int64) op { return op{Val: "S", Text: natArray(s), Want: digest("[[nat]]")} }
	// segments appends rebind-then-reads segments until count ops exist.
	segments := func(count int) []op {
		out := make([]op, 0, count)
		for len(out) < count {
			lens := []int{0, 2, 4, 6, 8}
			rng.Shuffle(len(lens), func(i, j int) { lens[i], lens[j] = lens[j], lens[i] })
			for _, extra := range lens {
				s := newS()
				out = append(out, rebind(s))
				for _, tmpl := range balanced(rng, mixedSegLenMin+extra, 2) {
					out = append(out, read(s, tmpl))
				}
			}
		}
		return out[:count]
	}
	w := &workload{Name: "mixed"}
	w.Setup = segments(mixedWarmSegs * (mixedSegLenMin + 5))
	w.Ops = segments(nops)
	return w, nil
}
