// .jir text-frontend tests: the Fig. 2 program written as source must give
// the paper's answers; every statement shape parses; errors carry line info.

#include <gtest/gtest.h>

#include "andersen/andersen.hpp"
#include "cfl/solver.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "pag/validate.hpp"

namespace parcfl::frontend {
namespace {

const char* kFig2Source = R"(
# The paper's Fig. 2 Vector example.
class Object {}
class ObjectArray { arr: Object; }
class Vector { elems: ObjectArray; }
class String extends Object {}
class Integer extends Object {}

method lib Vector_init(this: Vector) {
  t: ObjectArray = new ObjectArray;
  this.elems = t;
}

method lib Vector_add(this: Vector, e: Object) {
  t: ObjectArray = this.elems;
  t.arr = e;
}

method lib Vector_get(this: Vector): Object {
  t: ObjectArray = this.elems;
  r: Object = t.arr;
  return r;
}

method app main() {
  v1: Vector = new Vector;
  call Vector_init(v1);
  n1: String = new String;
  call Vector_add(v1, n1);
  s1: Object = call Vector_get(v1);
  v2: Vector = new Vector;
  call Vector_init(v2);
  n2: Integer = new Integer;
  call Vector_add(v2, n2);
  s2: Object = call Vector_get(v2);
}
)";

struct Compiled {
  Program program;
  LoweredProgram lowered;
};

Compiled compile(const std::string& source) {
  ParseError error;
  auto program = parse_jir(source, &error);
  EXPECT_TRUE(program.has_value()) << error.to_string();
  Compiled c{std::move(*program), {}};
  LowerOptions lo;
  lo.record_names = true;
  c.lowered = lower(c.program, lo);
  return c;
}

pag::NodeId var_named(const Compiled& c, const std::string& name) {
  for (std::size_t i = 0; i < c.program.vars().size(); ++i)
    if (c.program.vars()[i].name == name)
      return c.lowered.node_of(VarId(static_cast<std::uint32_t>(i)));
  ADD_FAILURE() << "no variable named " << name;
  return pag::NodeId::invalid();
}

TEST(Parser, Fig2SourceGivesPaperAnswers) {
  const auto c = compile(kFig2Source);
  EXPECT_TRUE(pag::is_well_formed(c.lowered.pag));

  cfl::ContextTable contexts;
  cfl::SolverOptions so;
  cfl::Solver solver(c.lowered.pag, contexts, nullptr, so);

  const auto s1 = solver.points_to(var_named(c, "s1"));
  const auto s2 = solver.points_to(var_named(c, "s2"));
  ASSERT_EQ(s1.nodes().size(), 1u);  // only the String allocation
  ASSERT_EQ(s2.nodes().size(), 1u);  // only the Integer allocation
  EXPECT_NE(s1.nodes()[0], s2.nodes()[0]);

  // Context-insensitively they conflate.
  cfl::SolverOptions ci;
  ci.context_sensitive = false;
  cfl::Solver ci_solver(c.lowered.pag, contexts, nullptr, ci);
  EXPECT_EQ(ci_solver.points_to(var_named(c, "s1")).nodes().size(), 2u);
}

TEST(Parser, AllStatementShapes) {
  const char* source = R"(
    class T { f: T; }
    global g: T;
    method app m(p: T): T {
      a: T = new T;
      b: T = a;          // assign
      c: T = (T) b;      // cast
      a.f = c;           // store
      d: T = a.f;        // load
      g = d;             // global write
      e: T = g;          // global read
      r: T = call m(e);  // recursive call with receiver
      return r;
    }
  )";
  const auto c = compile(source);
  EXPECT_EQ(c.program.statement_count(), 9u);  // incl. return's assign
  EXPECT_EQ(c.lowered.casts.size(), 1u);
  // Self-recursive call is collapsed by lowering.
  EXPECT_EQ(c.lowered.collapsed_call_sites, 1u);
  EXPECT_TRUE(pag::is_well_formed(c.lowered.pag));

  // Round-trip sanity: the analysis can answer on it.
  cfl::ContextTable contexts;
  cfl::SolverOptions so;
  cfl::Solver solver(c.lowered.pag, contexts, nullptr, so);
  const auto r = solver.points_to(var_named(c, "d"));
  EXPECT_EQ(r.status, cfl::QueryStatus::kComplete);
  EXPECT_EQ(r.nodes().size(), 1u);
}

TEST(Parser, ExtendsAndSubtyping) {
  const char* source = R"(
    class Derived extends Base {}
    class Base {}
    method app m() { x: Derived = new Derived; }
  )";
  ParseError error;
  const auto p = parse_jir(source, &error);
  ASSERT_TRUE(p.has_value()) << error.to_string();
  // Forward reference to Base resolved by the prescan.
  const auto& types = p->types();
  ASSERT_EQ(types.size(), 2u);
  EXPECT_TRUE(p->is_subtype(TypeId(0), TypeId(1)));
  EXPECT_FALSE(p->is_subtype(TypeId(1), TypeId(0)));
}

TEST(Parser, ForwardMethodCalls) {
  const char* source = R"(
    class T {}
    method app caller() {
      x: T = call helper();
    }
    method lib helper(): T {
      y: T = new T;
      return y;
    }
  )";
  const auto c = compile(source);
  cfl::ContextTable contexts;
  cfl::SolverOptions so;
  cfl::Solver solver(c.lowered.pag, contexts, nullptr, so);
  EXPECT_EQ(solver.points_to(var_named(c, "x")).nodes().size(), 1u);
}

TEST(Parser, QueriesAreAppLocalsOnly) {
  const auto c = compile(kFig2Source);
  // main's 6 declared locals (library methods contribute none).
  EXPECT_EQ(c.lowered.queries.size(), 6u);
}

struct ErrorCase {
  const char* name;  // stable test-name suffix
  const char* source;
  const char* expect;  // substring of the error message
};

// Without this gtest prints the case as raw pointer bytes, and CTest's test
// discovery would bake those (address-randomised) bytes into the test names.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

class ParserErrorTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ParserErrorTest, ReportsUsefulErrors) {
  ParseError error;
  const auto p = parse_jir(GetParam().source, &error);
  EXPECT_FALSE(p.has_value());
  EXPECT_NE(error.to_string().find(GetParam().expect), std::string::npos)
      << "got: " << error.to_string();
  EXPECT_GT(error.line, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(
        ErrorCase{"duplicate_class", "class T {} class T {}",
                  "duplicate class"},
        ErrorCase{"missing_class_keyword", "wibble", "expected 'class'"},
        ErrorCase{"unknown_type",
                  "class T {} method app m() { x: U = new T; }",
                  "unknown type"},
        ErrorCase{"unknown_variable", "class T {} method app m() { x = y; }",
                  "unknown variable"},
        ErrorCase{"unknown_method",
                  "class T {} method app m() { x: T = call nope(); }",
                  "unknown method"},
        ErrorCase{"wrong_arity",
                  "class T {} method app m(a: T) { y: T = call m(); }",
                  "wrong arity"},
        ErrorCase{"redeclaration",
                  "class T {} method app m() { x: T = new T; x: T = new T; }",
                  "redeclaration"},
        ErrorCase{"unknown_field",
                  "class T { f: T; } method app m() { x: T = new T; y: T = x.g; }",
                  "unknown field"},
        ErrorCase{"subtype_cycle", "class A extends B {} class B extends A {}",
                  "subtype cycle"},
        ErrorCase{"unexpected_character",
                  "class T {} method app m() { x: T @ }",
                  "unexpected character"},
        ErrorCase{"missing_semicolon",
                  "class T {} method app m() { x: T = new T", "expected ';'"}));

}  // namespace
}  // namespace parcfl::frontend
