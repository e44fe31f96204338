"""Small pass/fail report object shared by the check operations."""


class CheckReport:
    __slots__ = ("name", "checked", "failures", "notes")
    __hash__ = None

    def __init__(self, name):
        self.name = name
        self.checked = 0
        self.failures = []
        self.notes = []

    @property
    def ok(self):
        return not self.failures

    def record(self, condition, label):
        self.checked += 1
        if not condition:
            self.failures.append(label)
        return condition

    def note(self, text):
        self.notes.append(text)

    def to_obj(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "failures": list(self.failures),
            "notes": list(self.notes),
        }

    def summary(self):
        status = "PASS" if self.ok else "FAIL"
        line = f"{status} {self.name}: {self.checked - len(self.failures)}/{self.checked}"
        if self.notes:
            line += " (" + "; ".join(self.notes) + ")"
        return line
