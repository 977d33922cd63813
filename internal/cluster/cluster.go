// Package cluster models the compute side of an HPC system: the machine,
// its nodes, and scheduler job allocations.
//
// The paper runs all workloads on LLNL's Lassen (795 IBM Power9 nodes, 40
// usable cores and 4 Volta GPUs per node, 256GB RAM, EDR InfiniBand, a
// 24PiB GPFS file system). The characterization's Job Configuration entity
// (Table II) is built from exactly this information, so the model captures
// what the paper's JobUtility tool extracts from the scheduler.
package cluster

import (
	"fmt"
	"time"
)

// Machine describes an HPC system's node shape and scale.
type Machine struct {
	Name         string
	TotalNodes   int
	CoresPerNode int
	GPUsPerNode  int
	MemPerNodeGB int
	NetworkGbps  float64 // per-node injection bandwidth

	// Storage mount points visible to jobs.
	NodeLocalDir string // node-local burst buffer (RAM-backed on Lassen)
	TmpDir       string // node-local scratch
	SharedBBDir  string // shared burst buffer ("" when the system has none)
	PFSDir       string // parallel file system
}

// Lassen returns the machine model of the paper's testbed.
func Lassen() Machine {
	return Machine{
		Name:         "lassen",
		TotalNodes:   795,
		CoresPerNode: 40,
		GPUsPerNode:  4,
		MemPerNodeGB: 256,
		NetworkGbps:  100, // Mellanox EDR InfiniBand
		NodeLocalDir: "/dev/shm",
		TmpDir:       "/tmp",
		SharedBBDir:  "", // Lassen has no shared burst buffer (Table II: NA)
		PFSDir:       "/p/gpfs1",
	}
}

// Cori returns a Cori-like Cray XC machine: no node-local burst buffer,
// a DataWarp shared burst buffer, Lustre scratch. It exercises the
// shared-BB configuration space of Section II-B.
func Cori() Machine {
	return Machine{
		Name:         "cori",
		TotalNodes:   2388, // Haswell partition
		CoresPerNode: 32,
		GPUsPerNode:  0,
		MemPerNodeGB: 128,
		NetworkGbps:  82, // Aries
		NodeLocalDir: "",
		TmpDir:       "/tmp",
		SharedBBDir:  "/var/opt/cray/dws",
		PFSDir:       "/global/cscratch1",
	}
}

// Summit returns a Summit-like machine: 6 GPUs and a 1.6TB NVMe burst
// buffer per node, Alpine GPFS.
func Summit() Machine {
	return Machine{
		Name:         "summit",
		TotalNodes:   4608,
		CoresPerNode: 42,
		GPUsPerNode:  6,
		MemPerNodeGB: 512,
		NetworkGbps:  200, // dual-rail EDR
		NodeLocalDir: "/mnt/bb",
		TmpDir:       "/tmp",
		SharedBBDir:  "",
		PFSDir:       "/gpfs/alpine",
	}
}

// Job is a scheduler allocation: a set of nodes for a bounded time, with a
// fixed number of ranks placed round-robin-free (block) across nodes.
type Job struct {
	ID           string
	Machine      Machine
	Nodes        int
	RanksPerNode int
	TimeLimit    time.Duration
}

// NewJob validates and creates a job allocation on m.
func NewJob(id string, m Machine, nodes, ranksPerNode int, limit time.Duration) (Job, error) {
	j := Job{ID: id, Machine: m, Nodes: nodes, RanksPerNode: ranksPerNode, TimeLimit: limit}
	if err := j.Validate(); err != nil {
		return Job{}, err
	}
	return j, nil
}

// Validate checks the allocation against the machine.
func (j Job) Validate() error {
	if j.Nodes <= 0 {
		return fmt.Errorf("cluster: job %q requests %d nodes", j.ID, j.Nodes)
	}
	if j.Machine.TotalNodes > 0 && j.Nodes > j.Machine.TotalNodes {
		return fmt.Errorf("cluster: job %q requests %d nodes, machine %q has %d",
			j.ID, j.Nodes, j.Machine.Name, j.Machine.TotalNodes)
	}
	if j.RanksPerNode <= 0 {
		return fmt.Errorf("cluster: job %q has %d ranks per node", j.ID, j.RanksPerNode)
	}
	if j.Machine.CoresPerNode > 0 && j.RanksPerNode > j.Machine.CoresPerNode {
		return fmt.Errorf("cluster: job %q places %d ranks on %d-core nodes",
			j.ID, j.RanksPerNode, j.Machine.CoresPerNode)
	}
	if j.TimeLimit < 0 {
		return fmt.Errorf("cluster: job %q has negative time limit", j.ID)
	}
	return nil
}

// Ranks returns the total number of ranks in the job.
func (j Job) Ranks() int { return j.Nodes * j.RanksPerNode }

// NodeOf returns the node index hosting the given global rank, using block
// placement (ranks 0..R-1 on node 0, R..2R-1 on node 1, ...), which is the
// MPI default the paper's workloads use. It panics on out-of-range ranks.
func (j Job) NodeOf(rank int) int {
	if rank < 0 || rank >= j.Ranks() {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, j.Ranks()))
	}
	return rank / j.RanksPerNode
}

// LocalRank returns the rank's index within its node.
func (j Job) LocalRank(rank int) int {
	if rank < 0 || rank >= j.Ranks() {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, j.Ranks()))
	}
	return rank % j.RanksPerNode
}
