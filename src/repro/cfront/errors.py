"""Error types for the C frontend, all carrying source coordinates."""


class CFrontError(Exception):
    """Base class for all frontend errors."""

    def __init__(self, message, line=None, column=None, filename=None):
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename
        super().__init__(self._format())

    def _format(self):
        where = []
        if self.filename:
            where.append(self.filename)
        if self.line is not None:
            where.append("line %d" % self.line)
        if self.column is not None:
            where.append("col %d" % self.column)
        if where:
            return "%s (%s)" % (self.message, ", ".join(where))
        return self.message


class LexError(CFrontError):
    """Raised when the lexer meets a character sequence it cannot tokenize."""


class ParseError(CFrontError):
    """Raised when the parser meets a token sequence outside the grammar."""


class PreprocessError(CFrontError):
    """Raised for malformed preprocessor directives."""
