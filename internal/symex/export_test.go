package symex

// NullObj is the object every null pointer names, for the external
// tests' structural checks of decoded states.
var NullObj = nullObj
