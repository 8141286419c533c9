// Package sqlexec implements the relational query stack of the ecosystem:
// a SQL subset with the paper's extensions, a rule- and cost-based
// optimizer, and two executors over the column store — the default
// vectorized executor, whose batch kernels over encoded columns remove
// per-tuple interpretation the way SAP HANA SOE's SQL→C→LLVM compilation
// does (§IV-A, experiment E4), and a Volcano-style interpreter kept as
// its parity oracle and E4 baseline.
package sqlexec

import "repro/internal/value"

// Statement is any parsed SQL statement. Command is its command word
// (SELECT, INSERT, UPDATE, DELETE, CREATE, DROP, MERGE, EXPLAIN, BEGIN,
// COMMIT or ROLLBACK): it labels the statement's trace span and heads
// its wire command tag.
type Statement interface{ Command() string }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int
}

// SelectItem is one projection of a SELECT list.
type SelectItem struct {
	Expr Expr
	As   string
	Star bool   // SELECT * or alias.*
	Qual string // alias for alias.*
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// JoinClause is one JOIN ... ON ... in a FROM chain.
type JoinClause struct {
	Left  bool // LEFT OUTER JOIN
	Table TableRef
	On    Expr
}

// TableRef is a named table, a derived table, or a table function.
type TableRef struct {
	Name     string // base table or view name
	Alias    string
	Subquery *SelectStmt // derived table
	Func     *FuncExpr   // TABLE(f(args))
}

// InsertStmt is INSERT INTO ... VALUES / SELECT.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	Select  *SelectStmt
}

// UpdateStmt is UPDATE ... SET ... WHERE.
type UpdateStmt struct {
	Table string
	Set   []struct {
		Col  string
		Expr Expr
	}
	Where Expr
}

// DeleteStmt is DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table string
	Where Expr
}

// CreateTableStmt is CREATE TABLE with optional ecosystem options
// (PARTITION BY RANGE, WITH (...) hints such as stable_key).
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Cols        []ColDefAST
	Options     map[string]string
	PartitionBy string // range column, "" when unpartitioned
	Bounds      []int64
}

// ColDefAST is one column definition in CREATE TABLE.
type ColDefAST struct {
	Name string
	Type string
}

// CreateViewStmt is CREATE VIEW name AS select. SQL is the SELECT's
// source text, which the catalog stores as the view definition.
type CreateViewStmt struct {
	Name   string
	Select *SelectStmt
	SQL    string
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// MergeDeltaStmt is the HANA-style "MERGE DELTA OF t" maintenance command.
type MergeDeltaStmt struct{ Table string }

// TxnStmt is a transaction-control statement: Op is BEGIN, COMMIT (also
// spelled END) or ROLLBACK.
type TxnStmt struct{ Op string }

// ExplainStmt is EXPLAIN [ANALYZE] select.
type ExplainStmt struct {
	Analyze bool
	Select  *SelectStmt
}

func (*SelectStmt) Command() string      { return "SELECT" }
func (*InsertStmt) Command() string      { return "INSERT" }
func (*UpdateStmt) Command() string      { return "UPDATE" }
func (*DeleteStmt) Command() string      { return "DELETE" }
func (*CreateTableStmt) Command() string { return "CREATE" }
func (*CreateViewStmt) Command() string  { return "CREATE" }
func (*DropTableStmt) Command() string   { return "DROP" }
func (*MergeDeltaStmt) Command() string  { return "MERGE" }
func (x *TxnStmt) Command() string       { return x.Op }
func (*ExplainStmt) Command() string     { return "EXPLAIN" }

// Expr is any expression node.
type Expr interface{ expr() }

// Literal is a constant.
type Literal struct{ Val value.Value }

// ColRef is a possibly-qualified column reference.
type ColRef struct {
	Qual string // table alias, may be empty
	Name string
}

// Param is a positional parameter: "?" (numbered left to right) or "$N"
// (Index N-1). Deparse and EXPLAIN render it as "$N".
type Param struct{ Index int }

// BinaryExpr is a binary operator application.
type BinaryExpr struct {
	Op   string // + - * / % = <> < <= > >= AND OR LIKE
	L, R Expr
}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op string // NOT, -
	E  Expr
}

// FuncExpr is a function call, including aggregates.
type FuncExpr struct {
	Name     string
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

// CaseExpr is CASE WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Whens []struct{ Cond, Then Expr }
	Else  Expr
}

// InExpr is x IN (v1, v2, ...).
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

// BetweenExpr is x BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

func (*Literal) expr()     {}
func (*ColRef) expr()      {}
func (*Param) expr()       {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*FuncExpr) expr()    {}
func (*CaseExpr) expr()    {}
func (*InExpr) expr()      {}
func (*BetweenExpr) expr() {}
func (*IsNullExpr) expr()  {}
