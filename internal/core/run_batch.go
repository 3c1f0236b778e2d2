package core

import (
	"fmt"

	"cachecost/internal/workload"
)

// applyBatch issues one batch of ops against a batch-capable worker:
// the batch's reads as one multi-key read, then its writes as one
// multi-key write.
func applyBatch(svc BatchServiceWorker, ops []workload.Op) error {
	var readKeys []string
	var writeKeys []string
	var writeVals [][]byte
	for _, op := range ops {
		switch op.Kind {
		case workload.Read:
			readKeys = append(readKeys, op.Key)
		case workload.Write:
			writeKeys = append(writeKeys, op.Key)
			writeVals = append(writeVals, ValueFor(op.Key, op.ValueSize))
		}
	}
	if len(readKeys) > 0 {
		if _, err := svc.ReadBatch(readKeys); err != nil {
			return fmt.Errorf("core: batch read %d keys: %w", len(readKeys), err)
		}
	}
	if len(writeKeys) > 0 {
		if err := svc.WriteBatch(writeKeys, writeVals); err != nil {
			return fmt.Errorf("core: batch write %d keys: %w", len(writeKeys), err)
		}
	}
	return nil
}
