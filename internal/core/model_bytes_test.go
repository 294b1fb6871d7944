//go:build amd64

package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"marioh/internal/datasets"
)

// TestTrainedModelBytes pins the saved bytes of models trained on crime
// and hosts (dataset and training seed 1, 15 epochs) to SHA-256s recorded
// before the MLP kernels were blocked: the kernels may overlap float
// operations but never change one, or its order. Recorded on amd64, as CI
// runs; the language lets other GOARCHes fuse a multiply-add, which rounds
// once instead of twice, so the bytes are pinned on amd64 only.
func TestTrainedModelBytes(t *testing.T) {
	for _, tc := range []struct{ name, sha256 string }{
		{"crime", "f703329d98b8a9df38705dacd6f4f48da404b312cd72ae981d43cd2c264c1d5e"},
		{"hosts", "4b78cf70bd113cb85eced525a35d5ca85439ae2a3d449b4fc385c03238f821d0"},
	} {
		src := datasets.MustByName(tc.name, 1).Source.Reduced()
		m := Train(src.Project(), src, TrainOptions{Seed: 1, Epochs: 15})
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.sha256 {
			t.Errorf("%s: model SHA-256 %s, want %s", tc.name, got, tc.sha256)
		}
	}
}
