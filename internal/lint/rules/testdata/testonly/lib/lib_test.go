package lib

import (
	"testing"

	"repro/internal/testonlydata/helper"
)

func TestAll(t *testing.T) {
	helper.Fixture()
	TestOnlyFunc()
	T{}.TestOnlyMethod()
}
