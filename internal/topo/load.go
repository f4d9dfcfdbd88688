package topo

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LoadEdgeList parses a network from a simple text format, one declaration
// per line:
//
//	node <id> <x-km> <y-km> [memory] [swap-prob]
//	link <u> <v> [length-km] [channels]
//	# comments and blank lines are ignored
//
// Node IDs must be dense integers starting at 0 and declared before use.
// Omitted link lengths default to the Euclidean node distance; omitted
// memory, channels and swap probability come from cfg's Memory, Channels
// and SwapProb. The prober is the paper's e^{−αl}+δ model with cfg's
// Alpha and Delta, its δ noise seeded by seed. The file fixes the node
// count and placement, so cfg's Nodes, AreaKM, Waxman, connectivity and
// jitter fields are not read, though cfg must still pass Validate.
func LoadEdgeList(r io.Reader, cfg Config, seed int64) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type nodeDecl struct {
		x, y float64
		mem  int
		swap float64
	}
	var nodes []nodeDecl
	type linkDecl struct {
		u, v     int
		length   float64
		channels int
	}
	var links []linkDecl

	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i] // trailing comments allowed
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) < 4 {
				return nil, fmt.Errorf("topo: line %d: node needs id x y", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id != len(nodes) {
				return nil, fmt.Errorf("topo: line %d: node IDs must be dense and ordered (got %q, want %d)",
					lineNo, fields[1], len(nodes))
			}
			x, errX := strconv.ParseFloat(fields[2], 64)
			y, errY := strconv.ParseFloat(fields[3], 64)
			if errX != nil || errY != nil {
				return nil, fmt.Errorf("topo: line %d: bad coordinates", lineNo)
			}
			nd := nodeDecl{x: x, y: y, mem: cfg.Memory, swap: cfg.SwapProb}
			if len(fields) > 4 {
				if nd.mem, err = strconv.Atoi(fields[4]); err != nil || nd.mem < 0 {
					return nil, fmt.Errorf("topo: line %d: bad memory %q", lineNo, fields[4])
				}
			}
			if len(fields) > 5 {
				if nd.swap, err = strconv.ParseFloat(fields[5], 64); err != nil || nd.swap < 0 || nd.swap > 1 {
					return nil, fmt.Errorf("topo: line %d: bad swap probability %q", lineNo, fields[5])
				}
			}
			nodes = append(nodes, nd)
		case "link":
			if len(fields) < 3 {
				return nil, fmt.Errorf("topo: line %d: link needs u v", lineNo)
			}
			u, errU := strconv.Atoi(fields[1])
			v, errV := strconv.Atoi(fields[2])
			if errU != nil || errV != nil || u < 0 || v < 0 || u >= len(nodes) || v >= len(nodes) || u == v {
				return nil, fmt.Errorf("topo: line %d: bad link endpoints", lineNo)
			}
			ld := linkDecl{u: u, v: v, channels: cfg.Channels}
			var err error
			if len(fields) > 3 {
				if ld.length, err = strconv.ParseFloat(fields[3], 64); err != nil || ld.length <= 0 {
					return nil, fmt.Errorf("topo: line %d: bad length %q", lineNo, fields[3])
				}
			}
			if len(fields) > 4 {
				if ld.channels, err = strconv.Atoi(fields[4]); err != nil || ld.channels < 0 {
					return nil, fmt.Errorf("topo: line %d: bad channels %q", lineNo, fields[4])
				}
			}
			links = append(links, ld)
		default:
			return nil, fmt.Errorf("topo: line %d: unknown declaration %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topo: reading edge list: %w", err)
	}
	if len(nodes) < 2 {
		return nil, fmt.Errorf("topo: edge list declares %d nodes, need at least 2", len(nodes))
	}

	net := &Network{
		G:        newGraph(len(nodes)),
		Pos:      make([][2]float64, len(nodes)),
		Memory:   make([]int, len(nodes)),
		SwapProb: make([]float64, len(nodes)),
	}
	for i, nd := range nodes {
		net.Pos[i] = [2]float64{nd.x, nd.y}
		net.Memory[i] = nd.mem
		net.SwapProb[i] = nd.swap
	}
	for _, ld := range links {
		length := ld.length
		if length == 0 {
			length = dist(net.Pos[ld.u], net.Pos[ld.v])
			if length <= 0 {
				length = 1e-6
			}
		}
		net.G.AddEdge(ld.u, ld.v, length)
		net.LinkLen = append(net.LinkLen, length)
		net.Channels = append(net.Channels, ld.channels)
	}
	net.prober = ExpProber{Alpha: cfg.Alpha, Delta: cfg.Delta, Seed: seed}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("topo: loaded network invalid: %w", err)
	}
	return net, nil
}

// NSFNet returns the classic 14-node NSFNET backbone, a standard reference
// topology in quantum-network evaluations, with approximate continental-US
// coordinates scaled to kilometres, and the resources of cfg and the δ
// noise seed as in LoadEdgeList.
func NSFNet(cfg Config, seed int64) (*Network, error) {
	const spec = `
# NSFNET T1 backbone (14 nodes, 21 links); coordinates approximate, km.
node 0  600 1500   # Seattle
node 1  300  900   # Palo Alto
node 2  600  300   # San Diego
node 3 1500 1000   # Salt Lake City
node 4 2200  600   # Boulder
node 5 2800  500   # Houston
node 6 3200 1100   # Lincoln
node 7 3600  700   # Champaign
node 8 4200  900   # Pittsburgh
node 9 4000  300   # Atlanta
node 10 4300 1400  # Ann Arbor
node 11 4700 1300  # Ithaca
node 12 4900 1000  # Princeton
node 13 4800  700  # College Park
link 0 1
link 0 2
link 0 3
link 1 2
link 1 3
link 2 4
link 3 6
link 4 5
link 4 6
link 5 7
link 5 9
link 6 7
link 7 8
link 8 9
link 8 11
link 8 12
link 9 13
link 10 11
link 10 13
link 11 12
link 12 13
`
	return LoadEdgeList(strings.NewReader(spec), cfg, seed)
}
