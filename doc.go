// Package cachecost is a laboratory for studying the monetary cost of
// distributed in-memory caches in datacenter services — a from-scratch
// reproduction of "Rethinking the Cost of Distributed Caches for
// Datacenter Services" (HotNets '25).
//
// Everything the paper's testbed depends on is implemented in this module
// with the standard library only: a mini distributed SQL database (SQL
// front-end, planner/executor, LSM-flavored paged storage with block
// caches, Raft replication with leader leases), a remote cache tier, a
// linked in-process cache, a Slicer-style shard map, a gRPC-like RPC
// layer with a calibrated CPU cost model, workload generators matching
// the paper's traces, and a metering/pricing framework that converts
// measured busy CPU and provisioned DRAM into monthly dollars.
//
// Start with DESIGN.md for the system inventory, EXPERIMENTS.md for the
// paper-vs-measured record, cmd/costbench to regenerate every figure, and
// examples/quickstart for the API in sixty lines.
package cachecost
