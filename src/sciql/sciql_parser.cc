#include "sciql/sciql_parser.h"

#include "common/strings.h"
#include "relational/evaluator.h"
#include "relational/sql_lexer.h"

namespace teleios::sciql {

using relational::ParseExpression;
using relational::ParseSelectStatement;
using relational::ParseTypeName;
using relational::Token;
using relational::TokenCursor;
using relational::TokenType;

namespace {

Result<int64_t> ParseSignedInt(TokenCursor* cur) {
  bool neg = cur->AcceptSymbol("-");
  if (cur->Peek().type != TokenType::kInteger) {
    return cur->MakeError("expected integer");
  }
  int64_t v = cur->Next().int_value;
  return neg ? -v : v;
}

Result<CreateArrayStatement> ParseCreateArray(TokenCursor* cur) {
  CreateArrayStatement stmt;
  TELEIOS_RETURN_IF_ERROR(cur->ExpectKeyword("create"));
  TELEIOS_RETURN_IF_ERROR(cur->ExpectKeyword("array"));
  TELEIOS_ASSIGN_OR_RETURN(stmt.name, cur->ExpectIdentifier());
  TELEIOS_RETURN_IF_ERROR(cur->ExpectSymbol("("));
  do {
    std::string col_name;
    TELEIOS_ASSIGN_OR_RETURN(col_name, cur->ExpectIdentifier());
    TELEIOS_ASSIGN_OR_RETURN(storage::ColumnType type, ParseTypeName(cur));
    if (cur->AcceptKeyword("dimension")) {
      if (type != storage::ColumnType::kInt64) {
        return Status::TypeError("dimension '" + col_name +
                                 "' must be an integer type");
      }
      TELEIOS_RETURN_IF_ERROR(cur->ExpectSymbol("["));
      TELEIOS_ASSIGN_OR_RETURN(int64_t start, ParseSignedInt(cur));
      TELEIOS_RETURN_IF_ERROR(cur->ExpectSymbol(":"));
      TELEIOS_ASSIGN_OR_RETURN(int64_t end, ParseSignedInt(cur));
      TELEIOS_RETURN_IF_ERROR(cur->ExpectSymbol("]"));
      if (end <= start) {
        return Status::InvalidArgument("empty dimension range for '" +
                                       col_name + "'");
      }
      stmt.dims.push_back({col_name, start, end - start});
    } else {
      Value def;  // NULL default unless specified
      if (cur->AcceptKeyword("default")) {
        TELEIOS_ASSIGN_OR_RETURN(relational::ExprPtr e, ParseExpression(cur));
        TELEIOS_ASSIGN_OR_RETURN(def, relational::EvaluateConstant(e));
      }
      stmt.attributes.push_back({col_name, type});
      stmt.defaults.push_back(std::move(def));
    }
  } while (cur->AcceptSymbol(","));
  TELEIOS_RETURN_IF_ERROR(cur->ExpectSymbol(")"));
  if (stmt.dims.empty()) {
    return Status::InvalidArgument("CREATE ARRAY requires a DIMENSION");
  }
  if (stmt.attributes.empty()) {
    return Status::InvalidArgument("CREATE ARRAY requires an attribute");
  }
  return stmt;
}

Result<UpdateArrayStatement> ParseUpdateArray(TokenCursor* cur) {
  UpdateArrayStatement stmt;
  TELEIOS_RETURN_IF_ERROR(cur->ExpectKeyword("update"));
  TELEIOS_ASSIGN_OR_RETURN(stmt.name, cur->ExpectIdentifier());
  if (cur->AcceptSymbol("[")) {
    do {
      TELEIOS_ASSIGN_OR_RETURN(int64_t start, ParseSignedInt(cur));
      TELEIOS_RETURN_IF_ERROR(cur->ExpectSymbol(":"));
      TELEIOS_ASSIGN_OR_RETURN(int64_t end, ParseSignedInt(cur));
      stmt.slab.emplace_back(start, end);
    } while (cur->AcceptSymbol(","));
    TELEIOS_RETURN_IF_ERROR(cur->ExpectSymbol("]"));
  }
  TELEIOS_RETURN_IF_ERROR(cur->ExpectKeyword("set"));
  do {
    std::string col;
    TELEIOS_ASSIGN_OR_RETURN(col, cur->ExpectIdentifier());
    TELEIOS_RETURN_IF_ERROR(cur->ExpectSymbol("="));
    TELEIOS_ASSIGN_OR_RETURN(relational::ExprPtr e, ParseExpression(cur));
    stmt.assignments.emplace_back(std::move(col), std::move(e));
  } while (cur->AcceptSymbol(","));
  if (cur->AcceptKeyword("where")) {
    TELEIOS_ASSIGN_OR_RETURN(stmt.where, ParseExpression(cur));
  }
  return stmt;
}

}  // namespace

Result<SciQlStatement> ParseSciQl(const std::string& text) {
  TELEIOS_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                           relational::LexSql(text));
  TokenCursor cur(std::move(tokens));
  SciQlStatement result;
  if (cur.PeekKeyword("create")) {
    TELEIOS_ASSIGN_OR_RETURN(CreateArrayStatement s, ParseCreateArray(&cur));
    result = std::move(s);
  } else if (cur.PeekKeyword("update")) {
    TELEIOS_ASSIGN_OR_RETURN(UpdateArrayStatement s, ParseUpdateArray(&cur));
    result = std::move(s);
  } else if (cur.PeekKeyword("drop")) {
    cur.Next();
    TELEIOS_RETURN_IF_ERROR(cur.ExpectKeyword("array"));
    DropArrayStatement s;
    TELEIOS_ASSIGN_OR_RETURN(s.name, cur.ExpectIdentifier());
    result = std::move(s);
  } else if (cur.PeekKeyword("select")) {
    TELEIOS_ASSIGN_OR_RETURN(relational::SelectStatement s,
                             ParseSelectStatement(&cur));
    result = std::move(s);
  } else {
    return cur.MakeError("expected a SciQL statement");
  }
  cur.AcceptSymbol(";");
  if (!cur.AtEnd()) return cur.MakeError("unexpected trailing input");
  return result;
}

}  // namespace teleios::sciql
