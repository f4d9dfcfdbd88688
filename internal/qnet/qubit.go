package qnet

import (
	"math"
	"math/cmplx"
	"math/rand"
)

// Qubit is a single-qubit pure state α|0⟩ + β|1⟩, the payload Teleport
// moves over an established connection. The simulator does not track full
// multi-qubit density matrices — entanglement bookkeeping lives in Segment
// and Connection — but carrying real amplitudes lets tests verify that
// teleportation moves the state rather than copying it (no-cloning).
type Qubit struct {
	Alpha, Beta complex128
	// collapsed marks a qubit whose state was destroyed by measurement.
	collapsed bool
}

// NewQubit returns the normalized state (α, β). Zero vectors normalize to
// |0⟩.
func NewQubit(alpha, beta complex128) *Qubit {
	n := math.Sqrt(real(alpha*cmplx.Conj(alpha) + beta*cmplx.Conj(beta)))
	if n == 0 {
		return &Qubit{Alpha: 1}
	}
	return &Qubit{Alpha: alpha / complex(n, 0), Beta: beta / complex(n, 0)}
}

// RandomQubit draws a Haar-ish random pure state.
func RandomQubit(rng *rand.Rand) *Qubit {
	theta := rng.Float64() * math.Pi
	phi := rng.Float64() * 2 * math.Pi
	return NewQubit(
		complex(math.Cos(theta/2), 0),
		cmplx.Exp(complex(0, phi))*complex(math.Sin(theta/2), 0),
	)
}

// Collapsed reports whether the qubit's state has been destroyed.
func (q *Qubit) Collapsed() bool { return q.collapsed }

// Fidelity returns |⟨a|b⟩|² for two pure states, or 0 if either has
// collapsed.
func Fidelity(a, b *Qubit) float64 {
	if a == nil || b == nil || a.collapsed || b.collapsed {
		return 0
	}
	ip := cmplx.Conj(a.Alpha)*b.Alpha + cmplx.Conj(a.Beta)*b.Beta
	return real(ip * cmplx.Conj(ip))
}

// Teleport transfers the data qubit's state over an established
// entanglement connection. The source qubit collapses (it was measured
// jointly with the local Bell photon) and each segment of the connection is
// consumed; the returned qubit holds the state at the destination. The
// caller is responsible for having verified that all swaps succeeded — the
// paper's step iv reports swap results before sources teleport.
func Teleport(conn *Connection, data *Qubit) *Qubit {
	if data == nil || data.collapsed {
		return nil
	}
	out := &Qubit{Alpha: data.Alpha, Beta: data.Beta}
	// The Bell measurement destroys the source state (no-cloning) and the
	// classical-correction step leaves the destination photon in the data
	// state. An entanglement connection teleports one and only one qubit.
	data.collapsed = true
	data.Alpha, data.Beta = 0, 0
	for _, s := range conn.Segments {
		s.consumed = true
	}
	return out
}
