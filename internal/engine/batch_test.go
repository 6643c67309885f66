package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// alwaysFalse compiles to a predicate no row satisfies.
func alwaysFalse(Row) (Value, error) { return NewBool(false), nil }

// TestFilterCancellationNonBatchChild pins the fix for the cancellation hole
// in the batch fallback: a qualify-nothing filter over an operator chain with
// no batch-aware member (distinctOp adapts row-at-a-time) must observe a
// canceled statement within one batch, not after scanning the whole input —
// and must not spin forever on an infinite source.
func TestFilterCancellationNonBatchChild(t *testing.T) {
	rows := make([]Row, 200000)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i))}
	}
	sch := Schema{{Name: "id", T: TypeInt}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first batch
	qc := newQueryCtx(ctx, Limits{})
	f := &filterOp{
		child: &distinctOp{child: &valuesOp{rows: rows, sch: sch}},
		pred:  alwaysFalse,
		qc:    qc,
	}
	if err := f.open(); err != nil {
		t.Fatal(err)
	}
	defer f.close()
	_, err := f.nextBatch(make([]Row, 0, 64))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("nextBatch = %v, want context.Canceled", err)
	}
}

// TestBatchBufferRetainContract pins the batchOperator contract: rows a
// consumer retains from a returned batch must stay valid (same contents)
// after subsequent nextBatch calls reuse the destination buffer, through a
// rename→project→filter→limit stack over a values source.
func TestBatchBufferRetainContract(t *testing.T) {
	n := 10 * defaultBatchSize
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewString(fmt.Sprintf("s%d", i))}
	}
	sch := Schema{{Name: "id", T: TypeInt}, {Name: "s", T: TypeString}}
	qc := newQueryCtx(context.Background(), Limits{})
	var op operator = &valuesOp{rows: rows, sch: sch}
	op = &renameOp{child: op, sch: sch, qc: qc}
	op = &projectOp{child: op, sch: sch, fns: []evalFn{
		func(r Row) (Value, error) { return r[0], nil },
		func(r Row) (Value, error) { return r[1], nil },
	}, qc: qc}
	op = &filterOp{child: op, pred: func(r Row) (Value, error) {
		return NewBool(r[0].I%3 != 1), nil
	}, qc: qc}
	op = &limitOp{child: op, n: n, offset: 5, qc: qc}
	if err := op.open(); err != nil {
		t.Fatal(err)
	}
	defer op.close()

	b := op.(batchOperator)
	type kept struct {
		row  Row
		want []Value
	}
	var retained []kept
	buf := make([]Row, 0, 128)
	for {
		batch, err := b.nextBatch(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Retain a reference to the first row of every batch, with a deep
		// copy of its expected contents.
		r := batch[0]
		retained = append(retained, kept{row: r, want: append([]Value(nil), r...)})
		buf = batch // hand the same header back, as materialize does
	}
	if len(retained) < 10 {
		t.Fatalf("only %d batches seen, want >= 10", len(retained))
	}
	for i, k := range retained {
		if !reflect.DeepEqual([]Value(k.row), k.want) {
			t.Fatalf("retained row from batch %d was clobbered by a later nextBatch: %v != %v", i, k.row, k.want)
		}
	}
}
