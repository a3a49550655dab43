package view

import "rchdroid/internal/bundle"

// StockSaver is implemented by widgets whose state stock Android's
// restart path persists automatically. The subset is deliberately
// narrower than SaveState: real Android saves EditText text, CheckBox
// checked state and list scroll positions, but NOT programmatic TextView
// text, ImageView drawables, list selections, ProgressBar values or
// VideoView positions — which is exactly why the Table 3 / Table 5 apps
// lose state on a restart while RCHDroid's full shadow snapshot (§3.3,
// "all view states") preserves it.
type StockSaver interface {
	// SaveStockState writes the stock-persisted subset of the widget's
	// state into out, under the same keys RestoreState reads.
	SaveStockState(out *bundle.Bundle)
}

// SaveStockState implements StockSaver for EditText: text and cursor are
// saved (android.widget.TextView.onSaveInstanceState with an editable).
func (e *EditText) SaveStockState(out *bundle.Bundle) {
	if sec := e.saveSection(out, 2); sec != nil {
		sec.PutInt("cursor", int64(e.cursor))
		sec.PutString("text", e.text)
	}
}

// SaveStockState implements StockSaver for CheckBox: the checked flag is
// saved (CompoundButton.onSaveInstanceState).
func (c *CheckBox) SaveStockState(out *bundle.Bundle) {
	if sec := c.saveSection(out, 1); sec != nil {
		sec.PutBool("checked", c.checked)
	}
}

// SaveStockTree walks the tree and saves the stock-persisted subset of
// every widget that has one — the saved-instance-state bundle a stock
// restart carries across.
func SaveStockTree(root View, out *bundle.Bundle) {
	Walk(root, func(v View) bool {
		if ss, ok := v.(StockSaver); ok {
			ss.SaveStockState(out)
		}
		return true
	})
}
