package formal

import (
	"fmt"
	"time"
)

// Violation describes a discovered two-safety counterexample: a pair of
// executions agreeing on public inputs whose observable outputs differ.
type Violation struct {
	Step           int
	StateA, StateB uint64
	Public         uint64
	SecretA        uint64
	SecretB        uint64
	ObsA, ObsB     uint64
}

func (v *Violation) Error() string {
	return fmt.Sprintf(
		"formal: two-safety violation at step %d: public=%#x secrets=(%#x,%#x) obs=(%#x,%#x)",
		v.Step, v.Public, v.SecretA, v.SecretB, v.ObsA, v.ObsB)
}

// Result summarises one verification run.
type Result struct {
	Design        string
	StateBits     int
	ProductStates int // distinct product states explored
	Transitions   int64
	Steps         int
	Elapsed       time.Duration
	Violation     *Violation
}

// Holds reports whether the two-safety property held.
func (r Result) Holds() bool { return r.Violation == nil }

// productState is a pair of machine states in lockstep.
type productState struct{ a, b uint64 }

// Check exhaustively explores the product of two copies of the design
// from reset, driving both copies with every public input value and
// every pair of secret values, for up to maxSteps breadth-first levels.
// The observable outputs of the two copies must agree on every
// transition. The exploration cost is
//
//	O(reachable product states × 2^(publicBits + 2·secretBits))
//
// which is the exponential blow-up in state/input bits that Table VII
// contrasts against MicroSampler's linear scaling.
func Check(n *Netlist, maxSteps int) (Result, error) {
	res := Result{Design: n.Name, StateBits: n.StateBits()}
	if err := n.validate(); err != nil {
		return res, err
	}
	start := time.Now()
	scratch := make([]bool, len(n.gates))

	visited := map[productState]bool{}
	frontier := []productState{{0, 0}} // both copies start from the all-zero reset state
	visited[frontier[0]] = true

	publicMax := uint64(1) << n.publicBits
	secretMax := uint64(1) << n.secretBits

	for step := 0; step < maxSteps && len(frontier) > 0; step++ {
		var next []productState
		for _, ps := range frontier {
			for pub := uint64(0); pub < publicMax; pub++ {
				for sa := uint64(0); sa < secretMax; sa++ {
					na, oa := n.eval(ps.a, pub, sa, scratch)
					for sb := uint64(0); sb < secretMax; sb++ {
						nb, ob := n.eval(ps.b, pub, sb, scratch)
						res.Transitions++
						if oa != ob {
							res.Elapsed = time.Since(start)
							res.Steps = step + 1
							res.ProductStates = len(visited)
							res.Violation = &Violation{
								Step: step, StateA: ps.a, StateB: ps.b,
								Public: pub, SecretA: sa, SecretB: sb,
								ObsA: oa, ObsB: ob,
							}
							return res, nil
						}
						np := productState{na, nb}
						if !visited[np] {
							visited[np] = true
							next = append(next, np)
						}
					}
				}
			}
		}
		frontier = next
		res.Steps = step + 1
	}
	res.ProductStates = len(visited)
	res.Elapsed = time.Since(start)
	return res, nil
}
