package lib

import "testing"

func TestOnlyTested(t *testing.T) { OnlyTested(); _ = Config{TestSet: 1} }
